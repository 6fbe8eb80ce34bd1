(** Log manager of the user-level transaction system.

    Appends buffer records in memory and forces them to a log {e file} on
    whatever file system the environment lives on — which is the point of
    the paper's Figure 4 comparison: on the read-optimized file system the
    log force is an extra positioned write, on LFS it folds into the
    segment stream.

    Optional group commit (Section 4.4) through {!Groupcommit}: a commit
    force can wait for more committers or a timeout before issuing the
    write, amortizing the flush. With a multiprogramming level of 1 the
    wait always times out, which is why the benches leave it off by
    default. *)

type t

val open_log :
  ?tag:string -> Clock.t -> Stats.t -> Config.t -> Vfs.t -> path:string -> t
(** Open (or create) the log file and position at its end — found by
    scanning forward until the first torn or invalid record. [tag] names
    the stream in a multi-stream set: force latencies are additionally
    observed under ["log.<tag>.force"]. *)

val append : t -> Logrec.t -> Logrec.lsn
(** Buffer a record; returns its LSN. Charges record-formatting CPU. *)

val force : t -> upto:Logrec.lsn -> unit
(** Make everything up to and including [upto] durable (write + fsync).
    No-op if already flushed. *)

val force_commit : t -> upto:Logrec.lsn -> unit
(** A commit-time force honouring the group-commit policy: waits up to
    the configured timeout for [group_commit_size] commits to accumulate
    before issuing a single force. *)

val flushed_lsn : t -> Logrec.lsn
val next_lsn : t -> Logrec.lsn

val read_from : t -> Logrec.lsn -> (Logrec.lsn * Logrec.t) Seq.t
(** Durable records from the given LSN onward (recovery scan). *)

val truncate : t -> unit
(** Discard the entire log (used by sharp checkpoints once all dirty
    pages are flushed and no transaction is active), under the forces'
    exclusion: a force parked in its write/fsync can neither see
    [flushed] reset under it nor start against the half-truncated
    file. *)
