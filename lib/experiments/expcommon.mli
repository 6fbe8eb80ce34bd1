(** Shared machinery for the paper-reproduction experiments: one TPC-B
    run on any of the three {!Machine} setups, the artifact envelope and
    checks, and small statistics helpers. *)

type tpcb_run = {
  setup : Machine.setup;
  seed : int;
  result : Tpcb.result;
  cleaner_stall_s : float;  (** total time the system stalled cleaning *)
  cleaner_max_stall_s : float;
  lock_blocks : int;  (** times a worker blocked on a lock *)
  deadlocks : int;  (** transactions aborted by deadlock detection *)
  restarts : int;  (** deadlock victims retried *)
  stats : Stats.t;  (** the machine's stats — counters, histograms, trace *)
}

val scaled_config : ?config:Config.t -> int -> Config.t
(** [scaled_config ?config tps]: [config] if given, else the default
    machine with every parameter scaled by [tps]/10, preserving the
    paper's cache/database/disk ratios at a [tps]-TPS rating. *)

val on_demand_cleaner : Config.t -> Config.t
(** [cleaner_adaptive = false]: the LFS cleaner runs only when free
    segments drop below low water (the paper's cleaner), never ahead of
    need while the disk idles. Figures 4-7 pin this. *)

val run_tpcb_mpl :
  ?pool_pages:int ->
  ?trace:int ->
  ?prepare:(Machine.t -> unit) ->
  config:Config.t ->
  scale:Tpcb.scale ->
  txns:int ->
  seed:int ->
  mpl:int ->
  Machine.setup ->
  tpcb_run
(** Boot a fresh {!Machine}, build the database, open the transaction
    system with a [pool_pages] (default 1024) LIBTP pool, and run [txns]
    transactions at multiprogramming level [mpl] through
    {!Machine.run_window}; [mpl = 1] is the paper's single-user run.
    Reports throughput, cleaner interference and lock contention.
    [?trace] attaches an event-trace ring of that capacity to the
    machine's stats before the run; retrieve it via
    [Stats.trace run.stats]. [?prepare] runs after the transaction
    system opens but before the measured window — experiments use it to
    shape the disk (e.g. prefill to a target utilization for cleaner
    studies). *)

val mean : float list -> float
val stdev : float list -> float

val gain_pct : tpcb_run -> tpcb_run -> float
(** [gain_pct a b]: how much higher [a]'s TPS is than [b]'s, in percent. *)

val pp_header : string -> unit
(** Print a section banner for the experiment reports. *)

(** {2 Machine-readable benchmark artifacts}

    Every experiment driver can serialize its results as a [BENCH_*.json]
    document: [{meta: {name; schema; generator; config_fingerprint;
    config}, data: ...}]. The fingerprint lets tooling group artifacts
    produced under identical configurations. *)

val config_json : Config.t -> Json.t

val emit_bench : name:string -> config:Config.t -> Json.t -> unit
(** Wrap [data] in the [{meta; data}] envelope, write it as
    [BENCH_<name>.json] into [$BENCH_DIR] (or the current directory) and
    print the path. *)

val check_envelope : Json.t -> string list
(** The rules every artifact obeys, one message per violation: [meta]
    with a non-empty [name] and [config], a [data] object, at least one
    non-zero counter somewhere in the document, and every histogram
    carrying [count], [p50], [p95], [p99], [max] and [buckets]. *)

val scale_json : Tpcb.scale -> Json.t
(** [{accounts; tellers; branches}] *)

val tpcb_run_json : tpcb_run -> Json.t
(** One TPC-B run: throughput, cleaner interference, and the machine's
    full stats (counters + histograms, including the [tpcb.txn] latency
    histogram). *)

(** {2 TPC-B sweeps}

    The four sweeps ({!Mplsweep}, {!Disksweep}, {!Logsweep},
    {!Cleanersweep}) share one result shape, one artifact layout and one
    point checker; each adds only its own point fields and rules. *)

type 'p sweep = {
  points : 'p list;
  scale : Tpcb.scale;
  txns : int;  (** transactions per point *)
  config : Config.t;  (** the base configuration before per-point edits *)
  setup : Machine.setup;
}

val spread_scale : accounts_per_tps:int -> int -> Tpcb.scale
(** 200 tellers and 200 branches per TPS. The official ratios (10 and 1)
    leave both relations on one B-tree page, and page-grain 2PL would
    serialize every transaction on it at any MPL above 1; spreading
    them is the concurrency analogue of the spec's "scale the database
    with the load". Each sweep picks the account count of its regime. *)

val pp_sweep_header : string -> 'p sweep -> unit
(** {!pp_header} with the sweep's setup, accounts and txns per point. *)

val sweep_json :
  figure:string -> ?with_setup:bool -> ('p -> Json.t) -> 'p sweep -> Json.t
(** A sweep artifact's [data]: [{figure; setup; scale; txns; points}];
    [~with_setup:false] omits [setup] for sweeps that fix it. *)

val run_fields : tpcb_run -> (string * Json.t) list
(** The fields every sweep point reports about its run: [tps],
    [elapsed_s], [txns], [max_latency_s], [cleaner_stall_s],
    [lock_blocks], [deadlocks], [restarts] and the machine's [stats]. *)

val histo_p99 : Stats.t -> string -> float
(** p99 of a histogram; 0 when absent or empty. *)

val histo_mean : ?empty:float -> Stats.t -> string -> float
(** Mean of a histogram; [empty] (default 0) when absent or empty. *)

val histo_count : Stats.t -> string -> int

(** {3 Checking sweep artifacts} *)

val num : string -> Json.t -> float
(** [num key obj]: the numeric field [key] of [obj], 0 when absent. *)

val tps_above : string -> Json.t -> string -> Json.t -> string -> string option
(** [tps_above a_name a b_name b context]: [None] when point [a]'s [tps]
    is above point [b]'s, else the violation
    ["<a_name> (<tps a>) not above <b_name> (<tps b>)<context>"]. *)

val check_sweep :
  name:string -> fields:string list -> (Json.t list -> string list) ->
  Json.t -> string list
(** [check_sweep ~name ~fields rules doc]: one message per violation in
    artifact [doc]'s [data.points] — the list is empty, a point lacks
    one of [fields], its [txns] differs from [data.txns] or its [tps] is
    not above 0 — followed by [rules points], the sweep's own rules. *)
