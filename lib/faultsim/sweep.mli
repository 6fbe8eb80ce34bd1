(** Exhaustive crash-point sweeps over transactional workloads.

    A sweep first runs a seeded workload fault-free to count its block
    writes, then repeats it once per chosen crash point: the injector
    cuts the power after exactly that many writes, the file system and
    transaction environment recover, and the oracle checks the
    durability invariant. Everything is deterministic, so a reported
    failure replays from its [(seed, crash_point)] pair alone. *)

val config : ?mpl:int -> Machine.setup -> Config.t
(** The sweep machine for a setup at multiprogramming level [mpl]
    (default 1): a 4096-block disk of 32-block segments, a 128-block
    cache, a cleaner and checkpoints that take part in short runs, and
    group commit of [mpl] committers or 20 ms, so crash points land
    mid-rendezvous (at MPL 1 every commit forces). An acknowledged commit
    has been flushed either way. The runs below use it unless given
    [?config]. *)

type outcome = {
  setup : Machine.setup;
  seed : int;
  crash_point : int option;
  writes : int;  (** block writes observed while armed *)
  crashed : bool;
  violations : string list;  (** empty = the invariant held *)
  stats : Stats.t;  (** the machine's stats, through recovery *)
}

val describe : outcome -> string
(** One human-readable report; violations include the replay recipe. *)

val run_one :
  ?config:Config.t ->
  Machine.setup ->
  seed:int ->
  txns:int ->
  ?crash_point:int ->
  unit ->
  outcome
(** Run the page-level workload once on a {!Machine}: random page-sized
    transactional writes mixed with live-verified reads and occasional
    aborts, crash after [crash_point] block writes (never, if omitted),
    recover with {!Machine.crash_and_recover}, and check the oracle.
    Transient read errors are always injected. [config] (default
    [config setup]) selects the placement: with [log_disk] each user
    setup's WAL stream lives in a small FFS on its own spindle, crashed,
    remounted and fsck'd along with the data file system. *)

val run_one_tpcb_mpl :
  ?config:Config.t ->
  Machine.setup ->
  seed:int ->
  txns:int ->
  mpl:int ->
  ?crash_point:int ->
  unit ->
  outcome
(** Drive [txns] TPC-B transactions on a small database at
    multiprogramming level [mpl] through {!Machine.run_window}, crash
    after [crash_point] block writes (never, if omitted), recover, and
    check that the balance-consistency identity holds. An acknowledged
    commit is one whose [txn_commit] returned — a parked committer wakes
    only after its batch's force — so after recovery the history count
    must lie in [acked, acked + mpl]. [config] (default
    [config ~mpl setup]) sets everything else: group commit, placement,
    lock grain, disk size, cleaner. At [`Record] grain aborted history appends leave zeroed holes, which
    the oracle's hole-tolerant count skips. *)

type sweep_result = {
  total_writes : int;  (** crash points available in the run *)
  points_run : int;
  failures : outcome list;
}

val sweep :
  ?progress:(outcome -> unit) ->
  ?config:Config.t ->
  Machine.setup -> seed:int -> txns:int -> points:int -> sweep_result
(** Sweep the page workload. [points <= 0] (or >= the write count) runs
    every crash point; otherwise [points] evenly spaced ones. *)

val sweep_tpcb_mpl :
  ?progress:(outcome -> unit) ->
  ?config:Config.t ->
  Machine.setup -> seed:int -> txns:int -> mpl:int -> points:int ->
  sweep_result
(** Sweep {!run_one_tpcb_mpl}. Shrinking [config]'s disk puts the run
    under live cleaning pressure, so crash points land inside segment
    cleaning and hot/cold relocation. *)
