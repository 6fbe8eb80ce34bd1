(** One simulated machine running one of the paper's three transaction
    stacks (Figure 4), through its whole life: boot the spindles, format
    the data file system, build the TPC-B database, open the transaction
    system, run a measured window on the discrete-event scheduler, and
    crash and recover. Every experiment and every crash sweep boots its
    stacks here, so the configurations the benchmarks measure are the
    ones the crash oracle checks.

    The order the experiments use — and the simulated clock at window
    start depends on it — is {!boot} (format the data file system) →
    {!build} → {!open_txn} (format the log homes, open the environment)
    → any preparation → [Tpcb.open_db] → {!run_window}. *)

(** The three measured configurations of Figure 4. *)
type setup =
  | Ffs_user  (** LIBTP on the read-optimized file system *)
  | Lfs_user  (** LIBTP on LFS *)
  | Lfs_kernel  (** the transaction manager embedded in LFS *)

val setups : setup list
(** All three, in Figure 4's order. *)

val key : setup -> string
(** Short machine-readable slug: [ffs-user], [lfs-user], [lfs-kernel]. *)

val label : setup -> string
(** Human-readable name for reports. *)

(** The data file system. *)
type fs = Lfs of Lfs.t | Ffs of Ffs.t

type t = private {
  setup : setup;
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;  (** spindles per [cfg.fs.ndisks] / [cfg.fs.log_disk] *)
  mutable fs : fs;  (** replaced by {!crash_and_recover} *)
  mutable log_homes : Ffs.t array;
      (** one small FFS per dedicated log spindle, holding a WAL stream;
          empty for the kernel setup and without [log_disk] *)
  mutable wal : (int * int option) option;
      (** pool pages and checkpoint interval of the open LIBTP
          environment, which recovery reopens *)
}

val boot : ?trace:int -> Config.t -> setup -> t
(** Fresh clock, stats and spindles, and a freshly formatted data file
    system: LFS across the whole disk set, or FFS on the primary
    spindle. Only [Lfs_kernel] routes the LFS checkpoint region to a
    dedicated log spindle; the user setups keep their WAL there.
    [trace] attaches an event-trace ring of that capacity before
    anything runs. [cfg] is used as given. *)

val vfs : t -> Vfs.t
(** The data file system's interface (the remounted one after
    {!crash_and_recover}). *)

val lfs : t -> Lfs.t option
(** The data file system when it is LFS. *)

val build : t -> rng:Rng.t -> scale:Tpcb.scale -> Tpcb.db
(** [Tpcb.build] on the data file system. *)

val open_txn :
  ?protect:string list -> ?checkpoint_every:int -> t -> pool_pages:int ->
  Tpcb.backend
(** Open the setup's transaction system. [Lfs_kernel]: an embedded
    manager protecting the files [protect] (default: the TPC-B
    relations). The user setups: format the log homes and open a LIBTP
    environment with a [pool_pages] buffer pool and a sharp checkpoint
    every [checkpoint_every] commits (default LIBTP's); the WAL lives at
    [/log] in each log home, or at [/tpcb/log] in the data file system
    when there is no log spindle. *)

val sync : t -> unit
(** Flush the data file system and the log homes. *)

val run_window :
  t ->
  Tpcb.db ->
  Tpcb.backend ->
  rng:Rng.t ->
  txns:int ->
  mpl:int ->
  Tpcb.multi_result
(** The measured window: attach a {!Sched} to the machine's clock, start
    LFS's syncer and cleaner as background processes, run [txns]
    transactions with {!Tpcb.run_sched} at [mpl] workers, and detach
    (also when the run raises, e.g. an injected crash). Everything
    before the window runs outside any process. *)

val check : t -> unit
(** The data file system's structural check: [Lfs.check], or fsck on
    FFS. @raise Failure on corruption. *)

val crash_and_recover : t -> unit
(** Lose power and reboot: crash the data file system and the log
    homes, remount the log homes (each fsck'd), remount the data file
    system (fsck'd on FFS, whose on-disk bitmap is stale after any
    crash), and reopen the LIBTP environment if one was open, which
    replays the log. Afterwards {!vfs} reads the recovered state.
    @raise Failure if fsck finds cross-allocated blocks. *)
