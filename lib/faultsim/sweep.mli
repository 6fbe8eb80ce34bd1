(** Exhaustive crash-point sweeps over transactional workloads.

    A sweep first runs a seeded workload fault-free to count its block
    writes, then repeats it once per chosen crash point: the injector
    cuts the power after exactly that many writes, the file system and
    transaction environment recover, and the oracle checks the
    durability invariant. Everything is deterministic, so a reported
    failure replays from its [(seed, crash_point)] pair alone. *)

(** Which stack executes the workload: the embedded (kernel) transaction
    manager on LFS, or LIBTP on either file system. *)
type backend = Lfs_kernel | Lfs_user | Ffs_user

val backend_name : backend -> string

val backend_of_string : string -> backend
(** Inverse of {!backend_name}. @raise Invalid_argument on others. *)

type outcome = {
  backend : backend;
  seed : int;
  crash_point : int option;
  writes : int;  (** block writes observed while armed *)
  crashed : bool;
  violations : string list;  (** empty = the invariant held *)
}

val describe : outcome -> string
(** One human-readable report; violations include the replay recipe. *)

val run_one :
  ?ndisks:int ->
  ?log_disk:bool ->
  ?log_streams:int ->
  backend ->
  seed:int ->
  txns:int ->
  ?crash_point:int ->
  unit ->
  outcome
(** Run the page-level workload once: random page-sized transactional
    writes mixed with live-verified reads and occasional aborts, crash
    after [crash_point] block writes (never, if omitted), recover, and
    check the oracle. Transient read errors are always injected.
    [ndisks]/[log_disk] (defaults 1/false) select the multi-disk
    placement of {!Diskset}: for the user backends each dedicated log
    spindle carries a small FFS holding a WAL stream, crashed,
    remounted and fsck'd along with the data file system.
    [log_streams] (default 1) runs that many parallel WAL streams —
    with [log_disk], one spindle each. *)

val run_one_tpcb_mpl :
  ?ndisks:int ->
  ?log_disk:bool ->
  ?log_streams:int ->
  ?lock_grain:[ `Page | `Record ] ->
  ?nblocks:int ->
  backend ->
  seed:int ->
  txns:int ->
  mpl:int ->
  ?crash_point:int ->
  unit ->
  outcome
(** Drive [txns] TPC-B transactions on a small database at
    multiprogramming level [mpl] on the discrete-event scheduler, with
    group commit enabled (size [mpl], 20 ms timeout) so crash points
    land mid-rendezvous; crash after [crash_point] block writes (never,
    if omitted), recover, and check that the balance-consistency
    identity holds. An acknowledged commit is one whose [txn_commit]
    returned — a parked committer wakes only after its batch's force —
    so after recovery the history count must lie in
    [acked, acked + mpl]. [lock_grain] (default [`Page]) selects the
    locking granularity; at [`Record] aborted history appends leave
    zeroed holes, which the oracle's hole-tolerant count skips. *)

type sweep_result = {
  total_writes : int;  (** crash points available in the run *)
  points_run : int;
  failures : outcome list;
}

val sweep :
  ?progress:(outcome -> unit) ->
  ?ndisks:int ->
  ?log_disk:bool ->
  ?log_streams:int ->
  backend -> seed:int -> txns:int -> points:int -> sweep_result
(** Sweep the page workload. [points <= 0] (or >= the write count) runs
    every crash point; otherwise [points] evenly spaced ones. *)

val sweep_tpcb_mpl :
  ?progress:(outcome -> unit) ->
  ?ndisks:int ->
  ?log_disk:bool ->
  ?log_streams:int ->
  ?lock_grain:[ `Page | `Record ] ->
  ?nblocks:int ->
  backend -> seed:int -> txns:int -> mpl:int -> points:int -> sweep_result
(** Sweep {!run_one_tpcb_mpl}. [nblocks] (default 4096) sizes the disk:
    shrinking it puts the run under live cleaning pressure, so crash
    points land inside segment cleaning and hot/cold relocation. *)
