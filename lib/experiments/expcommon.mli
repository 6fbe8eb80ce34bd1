(** Shared machinery for the paper-reproduction experiments: booting
    machines, building TPC-B databases on either file system, running the
    transaction phase under any of the three configurations on the
    discrete-event scheduler, and small statistics helpers. *)

type machine = {
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;  (** spindles per [cfg.fs.ndisks] / [cfg.fs.log_disk] *)
}

val machine : ?route_checkpoints:bool -> Config.t -> machine
(** Boot clock, stats and the disk set of [cfg]. [route_checkpoints]
    (default false) is passed to {!Diskset.create}: only set it when the
    log spindle will not host a file system of its own. *)

(** The three measured configurations of Figure 4. *)
type setup =
  | Readopt_user  (** user-level transactions on the read-optimized FS *)
  | Lfs_user  (** user-level transactions on LFS *)
  | Lfs_kernel  (** the embedded transaction manager in LFS *)

val setup_label : setup -> string

val setup_key : setup -> string
(** Short machine-readable slug ([ffs-user], [lfs-user], [lfs-kernel]). *)

type tpcb_run = {
  setup : setup;
  seed : int;
  result : Tpcb.result;
  cleaner_stall_s : float;  (** total time the system stalled cleaning *)
  cleaner_max_stall_s : float;
  stats : Stats.t;  (** the machine's stats — counters, histograms, trace *)
}

val on_demand_cleaner : Config.t -> Config.t
(** [cleaner_adaptive = false]: the LFS cleaner runs only when free
    segments drop below low water (the paper's cleaner), never ahead of
    need while the disk idles. Figures 4-7 pin this. *)

val run_window :
  machine ->
  ?lfs:Lfs.t ->
  Tpcb.db ->
  Tpcb.backend ->
  rng:Rng.t ->
  txns:int ->
  mpl:int ->
  Tpcb.multi_result
(** The measured window: attach a {!Sched} to the machine's clock, start
    [lfs]'s syncer and cleaner as background processes, run [txns]
    transactions with {!Tpcb.run_sched} at [mpl] workers, and detach.
    Setup before the window runs outside any process. *)

val run_tpcb_mpl :
  ?pool_pages:int ->
  ?trace:int ->
  ?prepare:(machine -> Vfs.t -> Lfs.t option -> unit) ->
  config:Config.t ->
  scale:Tpcb.scale ->
  txns:int ->
  seed:int ->
  mpl:int ->
  setup ->
  tpcb_run * Tpcb.multi_result
(** Boot a fresh machine, build the database, and run [txns]
    transactions at multiprogramming level [mpl] through {!run_window};
    [mpl = 1] is the paper's single-user run. Reports throughput plus
    cleaner interference; the [multi_result] adds lock blocks, deadlocks
    and restarts. [?trace] attaches an event-trace ring of that capacity
    to the machine's stats before the run; retrieve it via
    [Stats.trace run.stats]. [?prepare] runs after the database is built
    but before the measured window — experiments use it to shape the
    disk (e.g. prefill to a target utilization for cleaner studies); it
    gets the LFS handle when the setup has one. *)

val mean : float list -> float
val stdev : float list -> float

val pp_header : string -> unit
(** Print a section banner for the experiment reports. *)

(** {2 Machine-readable benchmark artifacts}

    Every experiment driver can serialize its results as a [BENCH_*.json]
    document: [{meta: {name; schema; generator; config_fingerprint;
    config}, data: ...}]. The fingerprint lets tooling group artifacts
    produced under identical configurations. *)

val config_json : Config.t -> Json.t
val config_fingerprint : Config.t -> string

val bench_doc : name:string -> config:Config.t -> Json.t -> Json.t
(** Wrap [data] in the standard [{meta; data}] envelope. *)

val write_bench : name:string -> config:Config.t -> Json.t -> string
(** Write [BENCH_<name>.json] (pretty-printed) into [$BENCH_DIR] (or the
    current directory) and return the path. *)

val tpcb_run_json : tpcb_run -> Json.t
(** One TPC-B run: throughput, cleaner interference, and the machine's
    full stats (counters + histograms, including the [tpcb.txn] latency
    histogram). *)
