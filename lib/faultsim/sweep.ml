(* Crash-point sweeps: run a seeded transactional workload, cut the
   power after exactly the Nth block write, recover, and ask the oracle
   whether the durability invariant survived. Sweeping N across every
   write in the run turns crash consistency into an exhaustively checked
   property; any failure is replayable from its (seed, crash_point). *)

type backend = Lfs_kernel | Lfs_user | Ffs_user

let backend_name = function
  | Lfs_kernel -> "lfs-kernel"
  | Lfs_user -> "lfs-user"
  | Ffs_user -> "ffs-user"

let backend_of_string = function
  | "lfs-kernel" -> Lfs_kernel
  | "lfs-user" -> Lfs_user
  | "ffs-user" -> Ffs_user
  | s -> invalid_arg ("Sweep: unknown backend " ^ s)

(* A small machine: enough segments for the cleaner and checkpoints to
   take part, a cache smaller than the data, and — essential for the
   oracle — group commit disabled, so a commit's acknowledgement implies
   its flush completed. *)
let config ?(ndisks = 1) ?(log_disk = false) ?(log_streams = 1)
    ?(lock_grain = `Page) ?(nblocks = 4096) backend =
  let d = Config.default in
  {
    d with
    Config.disk = { d.Config.disk with nblocks; blocks_per_cylinder = 16 };
    fs =
      {
        d.Config.fs with
        kernel_txn = backend = Lfs_kernel;
        segment_blocks = 32;
        cache_blocks = 128;
        cleaner_low_segments = 6;
        cleaner_high_segments = 12;
        checkpoint_segments = 4;
        syncer_interval_s = 1.0;
        group_commit_timeout_s = 0.0;
        ndisks;
        log_disk;
        log_streams;
        lock_grain;
      };
  }

(* Boot the spindles for a sweep machine. Only the kernel backend leaves
   a dedicated log spindle bare (no WAL file system), so only it may
   route the LFS checkpoint region there. *)
let sweep_disks backend clock stats cfg =
  Diskset.create ~route_checkpoints:(backend = Lfs_kernel) clock stats cfg

let fsck_or_fail label fs' =
  let rep = Ffs.fsck fs' in
  if rep.Ffs.cross_allocated > 0 then
    failwith
      (Printf.sprintf "%s: %d cross-allocated blocks" label
         rep.Ffs.cross_allocated)

(* The WAL's home file systems: a small FFS per dedicated log spindle
   when the config grants them (user backends only — the kernel backend
   has no WAL; with [log_streams] > 1 there is one spindle per stream),
   else the data file system itself. [remount] replays a crash on each
   spindle: mount + bitmap rebuild, like any FFS. *)
type log_home = { log_fs : Ffs.t ref; log_spindle : Disk.t }

let make_log_homes backend clock stats cfg disks =
  match backend with
  | Lfs_kernel -> [||]
  | _ ->
    Array.map
      (fun ld -> { log_fs = ref (Ffs.format ld clock stats cfg); log_spindle = ld })
      (Diskset.log_disks disks)

let crash_log_homes homes = Array.iter (fun h -> Ffs.crash !(h.log_fs)) homes

let remount_log_homes clock stats cfg homes =
  Array.iter
    (fun h ->
      let fs' = Ffs.mount h.log_spindle clock stats cfg in
      fsck_or_fail "log fsck" fs';
      h.log_fs := fs')
    homes

let log_home_vfss homes =
  if Array.length homes = 0 then None
  else Some (Array.map (fun h -> Ffs.vfs !(h.log_fs)) homes)

type outcome = {
  backend : backend;
  seed : int;
  crash_point : int option;
  writes : int;  (** block writes observed while armed *)
  crashed : bool;
  violations : string list;  (** empty = the invariant held *)
}

let describe o =
  let cp =
    match o.crash_point with None -> "none" | Some p -> string_of_int p
  in
  match o.violations with
  | [] ->
    Printf.sprintf "[%s] seed=%d crash_point=%s: ok (%d writes, crashed=%b)"
      (backend_name o.backend) o.seed cp o.writes o.crashed
  | vs ->
    Printf.sprintf
      "[%s] DURABILITY VIOLATION at (seed=%d, crash_point=%s):\n  %s\n\
      \  replay with: --backend %s --seed %d --crash-point %s"
      (backend_name o.backend) o.seed cp
      (String.concat "\n  " vs)
      (backend_name o.backend) o.seed cp

(* Page-level workload ---------------------------------------------------- *)

let files = [ "/acct"; "/tell"; "/branch"; "/hist" ]
let npages = 8

(* A page filled with a repeated seed/stamp tag: cheap, deterministic,
   and distinct for every write of the run. *)
let page_image ~ps ~seed ~stamp =
  let b = Bytes.make ps '\000' in
  let tag = Printf.sprintf "#%d:%d#" seed stamp in
  let tl = String.length tag in
  let i = ref 0 in
  while !i < ps do
    let n = min tl (ps - !i) in
    Bytes.blit_string tag 0 b !i n;
    i := !i + n
  done;
  b

type txn_ops = {
  id : int;
  twrite : string -> int -> bytes -> unit;
  tread : string -> int -> bytes;
  tcommit : unit -> unit;
  tabort : unit -> unit;
}

type recovered = {
  rread : string -> int -> bytes;  (* one page, zero-padded *)
  rsize : string -> int;
  structural : unit -> unit;  (* raises on structural corruption *)
}

type session = { begin_txn : unit -> txn_ops; recover : unit -> recovered }

let pad_page ps b =
  if Bytes.length b = ps then b
  else begin
    let out = Bytes.make ps '\000' in
    Bytes.blit b 0 out 0 (min ps (Bytes.length b));
    out
  end

let vfs_reader ps (v : Vfs.t) structural =
  {
    rread =
      (fun f p ->
        pad_page ps (v.Vfs.read (v.Vfs.open_file f) ~off:(p * ps) ~len:ps));
    rsize = (fun f -> v.Vfs.size (v.Vfs.open_file f));
    structural;
  }

(* Create the working files and give every page committed initial
   contents, recorded as setup writes; the caller makes them durable
   before arming the injector. *)
let setup_pages oracle model fresh_page (v : Vfs.t) ps =
  List.iter
    (fun path ->
      let fd = v.Vfs.create path in
      for p = 0 to npages - 1 do
        let data = fresh_page () in
        v.Vfs.write fd ~off:(p * ps) data;
        Hashtbl.replace model (path, p) data;
        Oracle.record oracle (Oracle.Setup_write { file = path; page = p; data })
      done)
    files;
  ignore ps

let session_lfs_kernel clock stats disks cfg oracle model fresh_page =
  let ps = cfg.Config.disk.block_size in
  let fs = Lfs.format disks clock stats cfg in
  let v = Lfs.vfs fs in
  setup_pages oracle model fresh_page v ps;
  let kt = Ktxn.create fs in
  List.iter (fun f -> Ktxn.protect kt f) files;
  Lfs.sync fs;
  let inums = List.map (fun f -> (f, Lfs.inum_of fs f)) files in
  let inum f = List.assoc f inums in
  {
    begin_txn =
      (fun () ->
        let h = Ktxn.txn_begin kt in
        {
          id = Ktxn.txn_id h;
          twrite = (fun f p d -> Ktxn.write_page kt h ~inum:(inum f) ~page:p d);
          tread =
            (fun f p -> Bytes.copy (Ktxn.read_page kt h ~inum:(inum f) ~page:p));
          tcommit = (fun () -> Ktxn.txn_commit kt h);
          tabort = (fun () -> Ktxn.txn_abort kt h);
        });
    recover =
      (fun () ->
        Lfs.crash fs;
        let fs' = Lfs.mount disks clock stats cfg in
        vfs_reader ps (Lfs.vfs fs') (fun () -> Lfs.check fs'));
  }

let session_libtp backend clock stats disks cfg oracle model fresh_page ~on_lfs =
  let ps = cfg.Config.disk.block_size in
  let homes = make_log_homes backend clock stats cfg disks in
  let log_path = if Array.length homes = 0 then "/wal.log" else "/log" in
  let open_env v =
    Libtp.open_env clock stats cfg v ?log_vfss:(log_home_vfss homes)
      ~pool_pages:16 ~checkpoint_every:25 ~log_path ()
  in
  let crash_fs, mount_fs, v =
    if on_lfs then begin
      let fs = Lfs.format disks clock stats cfg in
      ( (fun () -> Lfs.crash fs),
        (fun () ->
          let fs' = Lfs.mount disks clock stats cfg in
          (Lfs.vfs fs', fun () -> Lfs.check fs')),
        Lfs.vfs fs )
    end
    else begin
      let fs = Ffs.format (Diskset.primary disks) clock stats cfg in
      ( (fun () -> Ffs.crash fs),
        (fun () ->
          let fs' = Ffs.mount (Diskset.primary disks) clock stats cfg in
          (* The on-disk bitmap is stale after any crash (delayed
             writes); rebuild it from the inodes before anything
             allocates. Cross-allocation would be real corruption. *)
          fsck_or_fail "fsck" fs';
          (Ffs.vfs fs', fun () -> fsck_or_fail "fsck" fs')),
        Ffs.vfs fs )
    end
  in
  setup_pages oracle model fresh_page v ps;
  v.Vfs.sync ();
  Array.iter (fun h -> (Ffs.vfs !(h.log_fs)).Vfs.sync ()) homes;
  let env = open_env v in
  let fd = List.map (fun f -> (f, v.Vfs.open_file f)) files in
  let fd f = List.assoc f fd in
  {
    begin_txn =
      (fun () ->
        let h = Libtp.begin_txn env in
        {
          id = Libtp.txn_id h;
          twrite = (fun f p d -> Libtp.write_page env h ~file:(fd f) ~page:p d);
          tread =
            (fun f p -> Bytes.copy (Libtp.read_page env h ~file:(fd f) ~page:p));
          tcommit = (fun () -> Libtp.commit env h);
          tabort = (fun () -> Libtp.abort env h);
        });
    recover =
      (fun () ->
        crash_fs ();
        crash_log_homes homes;
        remount_log_homes clock stats cfg homes;
        let v', structural = mount_fs () in
        (* Re-opening the environment replays the log: redo committed
           updates, undo losers, checkpoint (which flushes the pool, so
           plain file reads below see recovered state). *)
        ignore (open_env v');
        vfs_reader ps v' structural);
  }

let make_session backend clock stats disks cfg oracle model fresh_page =
  match backend with
  | Lfs_kernel -> session_lfs_kernel clock stats disks cfg oracle model fresh_page
  | Lfs_user ->
    session_libtp backend clock stats disks cfg oracle model fresh_page
      ~on_lfs:true
  | Ffs_user ->
    session_libtp backend clock stats disks cfg oracle model fresh_page
      ~on_lfs:false

(* One transaction mixes a few page writes with reads that are verified
   live against the acknowledged model (committed state + own writes) —
   so corruption visible before any crash is caught too. *)
let run_pages session oracle rng fresh_page model ~ps ~txns =
  let zeros = Bytes.make ps '\000' in
  for _ = 1 to txns do
    let t = session.begin_txn () in
    Oracle.record oracle (Oracle.Txn_begin t.id);
    let pending = Hashtbl.create 4 in
    let nops = 1 + Rng.int rng 4 in
    for _ = 1 to nops do
      let f = List.nth files (Rng.int rng (List.length files)) in
      let p = Rng.int rng npages in
      if Rng.int rng 4 = 0 then begin
        let actual = t.tread f p in
        let expected =
          match Hashtbl.find_opt pending (f, p) with
          | Some d -> d
          | None -> (
            match Hashtbl.find_opt model (f, p) with
            | Some d -> d
            | None -> zeros)
        in
        if not (Bytes.equal actual expected) then
          failwith (Printf.sprintf "live read of %s page %d diverged" f p)
      end
      else begin
        let d = fresh_page () in
        t.twrite f p d;
        Hashtbl.replace pending (f, p) d;
        Oracle.record oracle
          (Oracle.Txn_write { txn = t.id; file = f; page = p; data = d })
      end
    done;
    if Hashtbl.length pending > 0 && Rng.int rng 5 = 0 then begin
      Oracle.record oracle (Oracle.Abort_start t.id);
      t.tabort ();
      Oracle.record oracle (Oracle.Abort_done t.id)
    end
    else begin
      Oracle.record oracle (Oracle.Commit_start t.id);
      t.tcommit ();
      Oracle.record oracle (Oracle.Commit_done t.id);
      Hashtbl.iter (fun k d -> Hashtbl.replace model k d) pending
    end
  done

let run_one ?ndisks ?log_disk ?log_streams backend ~seed ~txns ?crash_point () =
  let cfg = config ?ndisks ?log_disk ?log_streams backend in
  let clock = Clock.create () in
  let stats = Stats.create () in
  let disks = sweep_disks backend clock stats cfg in
  let rng = Rng.create ~seed in
  let ps = cfg.Config.disk.block_size in
  let stamp = ref 0 in
  let fresh_page () =
    incr stamp;
    page_image ~ps ~seed ~stamp:!stamp
  in
  let oracle = Oracle.create ~page_size:ps in
  let model = Hashtbl.create 64 in
  let session = make_session backend clock stats disks cfg oracle model fresh_page in
  let arm =
    Faultsim.arm ?crash_after:crash_point ~read_error_rate:0.02
      ~rng:(Rng.split rng) disks
  in
  let crashed, workload_err =
    match run_pages session oracle rng fresh_page model ~ps ~txns with
    | () -> (false, None)
    | exception Disk.Injected_crash -> (true, None)
    | exception e -> (false, Some (Printexc.to_string e))
  in
  let writes = Faultsim.writes arm in
  Faultsim.disarm arm;
  let violations =
    ref (match workload_err with Some m -> [ "workload: " ^ m ] | None -> [])
  in
  let push m = violations := m :: !violations in
  (try
     let r = session.recover () in
     (try r.structural ()
      with e -> push ("structural check: " ^ Printexc.to_string e));
     List.iter
       (fun v -> push (Format.asprintf "%a" Oracle.pp_violation v))
       (Oracle.check oracle ~read_page:r.rread ~size:r.rsize)
   with e -> push ("recovery failed: " ^ Printexc.to_string e));
  { backend; seed; crash_point; writes; crashed; violations = List.rev !violations }

(* TPC-B workload --------------------------------------------------------- *)

(* Small-scale TPC-B: the database must fit the sweep machine, and a run
   must stay short enough to repeat hundreds of times. The oracle here
   is the benchmark's own accounting identity — balances, history
   provenance, and an acknowledged-commit lower bound — plus the file
   system's structural checker. *)
let tpcb_scale = { Tpcb.accounts = 200; tellers = 10; branches = 2 }

(* Worker processes on the discrete-event scheduler; at MPL > 1 they
   park at the group-commit rendezvous, so a crash point can land
   mid-batch — some committers flushed but not yet resumed, others
   parked with nothing durable. Acknowledgement is [txn_commit]
   returning (a parked committer wakes only after its batch's force), so
   every acknowledged commit must survive recovery; beyond them at most
   [mpl] in-flight transactions may have landed. *)
let run_one_tpcb_mpl ?ndisks ?log_disk ?log_streams ?lock_grain ?nblocks
    backend ~seed ~txns ~mpl ?crash_point () =
  let cfg = config ?ndisks ?log_disk ?log_streams ?lock_grain ?nblocks backend in
  (* Group commit on — the rendezvous is the point of the MPL > 1 sweeps.
     A batch of [mpl] fills at once at MPL 1, so every commit forces. *)
  let cfg =
    {
      cfg with
      Config.fs =
        {
          cfg.Config.fs with
          group_commit_size = mpl;
          group_commit_timeout_s = 0.02;
        };
    }
  in
  let clock = Clock.create () in
  let stats = Stats.create () in
  let disks = sweep_disks backend clock stats cfg in
  let sched = Sched.create clock in
  let rng = Rng.create ~seed in
  let scale = tpcb_scale in
  let homes = make_log_homes backend clock stats cfg disks in
  let open_env v =
    Libtp.open_env clock stats cfg v ?log_vfss:(log_home_vfss homes)
      ~pool_pages:64 ~checkpoint_every:50
      ~log_path:(if Array.length homes = 0 then "/tpcb.log" else "/log")
      ()
  in
  let recover_log () =
    crash_log_homes homes;
    remount_log_homes clock stats cfg homes
  in
  let bh, db, _vfs, recover =
    match backend with
    | Lfs_kernel ->
      let fs = Lfs.format disks clock stats cfg in
      let v = Lfs.vfs fs in
      let db = Tpcb.build clock stats cfg v ~rng ~scale in
      let kt = Ktxn.create fs in
      Tpcb.protect_all db kt;
      Lfs.start_background fs;
      ( Tpcb.Kernel kt,
        db,
        v,
        fun () ->
          Lfs.crash fs;
          let fs' = Lfs.mount disks clock stats cfg in
          (Lfs.vfs fs', fun () -> Lfs.check fs') )
    | Lfs_user ->
      let fs = Lfs.format disks clock stats cfg in
      let v = Lfs.vfs fs in
      let db = Tpcb.build clock stats cfg v ~rng ~scale in
      let env = open_env v in
      Lfs.start_background fs;
      ( Tpcb.User env,
        db,
        v,
        fun () ->
          Lfs.crash fs;
          recover_log ();
          let fs' = Lfs.mount disks clock stats cfg in
          let v' = Lfs.vfs fs' in
          ignore (open_env v');
          (v', fun () -> Lfs.check fs') )
    | Ffs_user ->
      let fs = Ffs.format (Diskset.primary disks) clock stats cfg in
      let v = Ffs.vfs fs in
      let db = Tpcb.build clock stats cfg v ~rng ~scale in
      let env = open_env v in
      ( Tpcb.User env,
        db,
        v,
        fun () ->
          Ffs.crash fs;
          recover_log ();
          let fs' = Ffs.mount (Diskset.primary disks) clock stats cfg in
          fsck_or_fail "fsck" fs';
          let v' = Ffs.vfs fs' in
          ignore (open_env v');
          (v', fun () -> ()) )
  in
  let arm =
    Faultsim.arm ?crash_after:crash_point ~read_error_rate:0.02
      ~rng:(Rng.split rng) disks
  in
  let crashed, workload_err =
    match Tpcb.run_sched clock stats cfg db bh ~rng ~n:txns ~mpl with
    | (_ : Tpcb.multi_result) -> (false, None)
    | exception Disk.Injected_crash -> (true, None)
    | exception e -> (false, Some (Printexc.to_string e))
  in
  (* Workers bump "tpcb.commits" immediately after [txn_commit] returns,
     with no intervening yield — exactly the acknowledgement point. *)
  let acked = Stats.count stats "tpcb.commits" in
  let writes = Faultsim.writes arm in
  Faultsim.disarm arm;
  (* Recovery runs outside any process, as at boot. *)
  Sched.detach sched;
  let violations =
    ref (match workload_err with Some m -> [ "workload: " ^ m ] | None -> [])
  in
  let push m = violations := m :: !violations in
  (try
     let v, structural = recover () in
     (try structural ()
      with e -> push ("structural check: " ^ Printexc.to_string e));
     let db' = Tpcb.open_db v ~scale in
     (try Tpcb.check_consistency clock stats cfg db' v
      with e -> push ("tpcb consistency: " ^ Printexc.to_string e));
     let h = Tpcb.history_count clock stats cfg db' v in
     if h < acked || h > acked + mpl then
       push
         (Printf.sprintf "history count %d outside [%d, %d]" h acked
            (acked + mpl))
   with e -> push ("recovery failed: " ^ Printexc.to_string e));
  { backend; seed; crash_point; writes; crashed; violations = List.rev !violations }

(* Sweeping --------------------------------------------------------------- *)

type sweep_result = {
  total_writes : int;  (** crash points available in the run *)
  points_run : int;
  failures : outcome list;
}

let sweep_runs ?(progress = fun (_ : outcome) -> ()) run ~points =
  (* The fault-free run both counts the crash points and sanity-checks
     that the oracle holds without any fault injected. *)
  let base = run ?crash_point:None () in
  if base.violations <> [] then
    { total_writes = base.writes; points_run = 1; failures = [ base ] }
  else begin
    let total = base.writes in
    let pts =
      if points <= 0 || points >= total then List.init total (fun i -> i + 1)
      else
        List.sort_uniq compare
          (List.init points (fun i -> 1 + (i * (total - 1) / max 1 (points - 1))))
    in
    let failures =
      List.filter_map
        (fun p ->
          let r = run ?crash_point:(Some p) () in
          progress r;
          if r.violations = [] then None else Some r)
        pts
    in
    { total_writes = total; points_run = List.length pts; failures }
  end

let sweep ?progress ?ndisks ?log_disk ?log_streams backend ~seed ~txns ~points =
  sweep_runs ?progress
    (fun ?crash_point () ->
      run_one ?ndisks ?log_disk ?log_streams backend ~seed ~txns ?crash_point ())
    ~points

let sweep_tpcb_mpl ?progress ?ndisks ?log_disk ?log_streams ?lock_grain
    ?nblocks backend ~seed ~txns ~mpl ~points =
  sweep_runs ?progress
    (fun ?crash_point () ->
      run_one_tpcb_mpl ?ndisks ?log_disk ?log_streams ?lock_grain ?nblocks
        backend ~seed ~txns ~mpl ?crash_point ())
    ~points
