(** Multiprogramming-level sweep (MPL x group-commit configuration).

    The paper measured everything at MPL 1 and conceded that "group
    commit provides no benefit" there (Section 4.4). On the
    discrete-event scheduler this experiment sweeps MPL over
    [{1,2,4,8,16}] crossed with group-commit [(size, timeout)]
    configurations crossed with the locking granularity
    ([`Page] vs [`Record], see {!Lockmgr}) and reports, per point:
    throughput, the mean commit batch size actually achieved,
    flush/force counts, lock blocks, deadlocks, rendezvous wait time and
    the p99 lock wait. *)

type point = {
  mpl : int;
  group_size : int;
  group_timeout_s : float;
  lock_grain : [ `Page | `Record ];
  run : Expcommon.tpcb_run;
  mean_batch : float;  (** mean committers per flush (1.0 if no sample) *)
  group_flushes : int;
  group_commit_wait_s : float;
  lock_wait_p99_s : float;  (** p99 time a transaction spent parked on a lock *)
}

type t = point Expcommon.sweep

val default_mpls : int list
val default_groups : (int * float) list
val default_grains : [ `Page | `Record ] list

val run :
  ?config:Config.t ->
  ?tps_scale:int ->
  ?txns:int ->
  ?seed:int ->
  ?mpls:int list ->
  ?groups:(int * float) list ->
  ?grains:[ `Page | `Record ] list ->
  ?setup:Machine.setup ->
  unit ->
  t
(** Default [setup] is {!Machine.Lfs_user}: record granularity changes
    end-to-end behaviour only in the user-level system (the embedded
    kernel manager keeps page-exclusive writes). *)

val to_json : t -> Json.t
(** The [data] block of [BENCH_mplsweep.json]. *)

val check : Json.t -> string list
(** {!Expcommon.check_sweep} plus: some point batches commits when MPL
    and group size allow it; MPL 8 out-runs MPL 1 for each grouped
    configuration and grain; record grain out-runs page grain at MPL 16. *)

val print : t -> unit
