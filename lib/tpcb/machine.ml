type setup = Ffs_user | Lfs_user | Lfs_kernel

let setups = [ Ffs_user; Lfs_user; Lfs_kernel ]

let key = function
  | Ffs_user -> "ffs-user"
  | Lfs_user -> "lfs-user"
  | Lfs_kernel -> "lfs-kernel"

let label = function
  | Ffs_user -> "read-optimized / user-level"
  | Lfs_user -> "LFS / user-level"
  | Lfs_kernel -> "LFS / kernel (embedded)"

type fs = Lfs of Lfs.t | Ffs of Ffs.t

type t = {
  setup : setup;
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;
  mutable fs : fs;
  mutable log_homes : Ffs.t array;
  mutable wal : (int * int option) option;
}

let boot ?trace cfg setup =
  let clock = Clock.create () in
  let stats = Stats.create () in
  (* Only the kernel-embedded setup leaves a dedicated log spindle free
     of a file system, so only there may the LFS checkpoint region move
     to it. *)
  let disks =
    Diskset.create ~route_checkpoints:(setup = Lfs_kernel) clock stats cfg
  in
  Option.iter
    (fun cap -> Stats.set_trace stats (Some (Trace.create ~capacity:cap ())))
    trace;
  let fs =
    match setup with
    | Ffs_user -> Ffs (Ffs.format (Diskset.primary disks) clock stats cfg)
    | Lfs_user | Lfs_kernel -> Lfs (Lfs.format disks clock stats cfg)
  in
  { setup; cfg; clock; stats; disks; fs; log_homes = [||]; wal = None }

let vfs m = match m.fs with Lfs fs -> Lfs.vfs fs | Ffs fs -> Ffs.vfs fs
let lfs m = match m.fs with Lfs fs -> Some fs | Ffs _ -> None

let build m ~rng ~scale = Tpcb.build m.clock m.stats m.cfg (vfs m) ~rng ~scale

(* The WAL: one stream file per configured stream, either in the data
   file system or, with dedicated log spindles, one small FFS per
   spindle (the log homes), so commit forces never move the data heads.
   The kernel setup has no WAL; its log spindle holds the checkpoints. *)
let log_spindles m =
  match m.setup with
  | Lfs_kernel -> [||]
  | Ffs_user | Lfs_user -> Diskset.log_disks m.disks

let open_env m (pool_pages, checkpoint_every) =
  let log_vfss, log_path =
    match m.log_homes with
    | [||] -> (None, "/tpcb/log")
    | homes -> (Some (Array.map Ffs.vfs homes), "/log")
  in
  Libtp.open_env m.clock m.stats m.cfg (vfs m) ?log_vfss ~pool_pages
    ?checkpoint_every ~log_path ()

let open_txn ?(protect = Tpcb.relations) ?checkpoint_every m ~pool_pages =
  match (m.setup, m.fs) with
  | Lfs_kernel, Lfs fs ->
    let k = Ktxn.create fs in
    List.iter (Ktxn.protect k) protect;
    Tpcb.Kernel k
  | _ ->
    m.log_homes <-
      Array.map
        (fun ld -> Ffs.format ld m.clock m.stats m.cfg)
        (log_spindles m);
    let wal = (pool_pages, checkpoint_every) in
    m.wal <- Some wal;
    Tpcb.User (open_env m wal)

let sync m =
  (vfs m).Vfs.sync ();
  Array.iter Ffs.sync m.log_homes

let run_window m db backend ~rng ~txns ~mpl =
  let sched = Sched.create m.clock in
  Fun.protect
    ~finally:(fun () -> Sched.detach sched)
    (fun () ->
      Option.iter Lfs.start_background (lfs m);
      Tpcb.run_sched m.clock m.stats m.cfg db backend ~rng ~n:txns ~mpl)

(* Cross-allocation after a crash is real corruption; leaked blocks are
   the expected cost of delayed writes, and fsck repairs them. *)
let fsck fs =
  let rep = Ffs.fsck fs in
  if rep.Ffs.cross_allocated > 0 then
    failwith
      (Printf.sprintf "fsck: %d cross-allocated blocks"
         rep.Ffs.cross_allocated);
  fs

let check m =
  match m.fs with Lfs fs -> Lfs.check fs | Ffs fs -> ignore (fsck fs)

let crash_and_recover m =
  (match m.fs with Lfs fs -> Lfs.crash fs | Ffs fs -> Ffs.crash fs);
  Array.iter Ffs.crash m.log_homes;
  if m.wal <> None then
    m.log_homes <-
      Array.map
        (fun ld -> fsck (Ffs.mount ld m.clock m.stats m.cfg))
        (log_spindles m);
  (* The on-disk FFS bitmap is stale after any crash (delayed writes):
     fsck rebuilds it from the inodes before anything allocates. *)
  m.fs <-
    (match m.fs with
    | Lfs _ -> Lfs (Lfs.mount m.disks m.clock m.stats m.cfg)
    | Ffs _ ->
      Ffs (fsck (Ffs.mount (Diskset.primary m.disks) m.clock m.stats m.cfg)));
  (* Reopening the environment replays the log: redo committed updates,
     undo losers, checkpoint — which flushes the pool, so plain file
     reads see the recovered state. *)
  Option.iter (fun wal -> ignore (open_env m wal)) m.wal
