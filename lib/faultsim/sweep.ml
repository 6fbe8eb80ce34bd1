(* Crash-point sweeps: run a seeded transactional workload, cut the
   power after exactly the Nth block write, recover, and ask the oracle
   whether the durability invariant survived. Sweeping N across every
   write in the run turns crash consistency into an exhaustively checked
   property; any failure is replayable from its (seed, crash_point). *)

(* A small machine: enough segments for the cleaner and checkpoints to
   take part, a cache smaller than the data, and group commit of [mpl]
   committers or 20 ms — the rendezvous is the point of the MPL > 1
   sweeps. A committer is acknowledged only once its batch is flushed;
   at MPL 1 every commit forces. *)
let config ?(mpl = 1) setup =
  let d = Config.default in
  {
    d with
    Config.disk =
      { d.Config.disk with nblocks = 4096; blocks_per_cylinder = 16 };
    fs =
      {
        d.Config.fs with
        kernel_txn = setup = Machine.Lfs_kernel;
        segment_blocks = 32;
        cache_blocks = 128;
        cleaner_low_segments = 6;
        cleaner_high_segments = 12;
        checkpoint_segments = 4;
        syncer_interval_s = 1.0;
        group_commit_size = mpl;
        group_commit_timeout_s = (if mpl > 1 then 0.02 else 0.0);
      };
  }

type outcome = {
  setup : Machine.setup;
  seed : int;
  crash_point : int option;
  writes : int;  (** block writes observed while armed *)
  crashed : bool;
  violations : string list;  (** empty = the invariant held *)
  stats : Stats.t;
}

let describe o =
  let cp =
    match o.crash_point with None -> "none" | Some p -> string_of_int p
  in
  let name = Machine.key o.setup in
  match o.violations with
  | [] ->
    Printf.sprintf "[%s] seed=%d crash_point=%s: ok (%d writes, crashed=%b)"
      name o.seed cp o.writes o.crashed
  | vs ->
    Printf.sprintf
      "[%s] DURABILITY VIOLATION at (seed=%d, crash_point=%s):\n  %s\n\
      \  replay with: --backend %s --seed %d --crash-point %s"
      name o.seed cp (String.concat "\n  " vs) name o.seed cp

(* Arm the injector on a machine whose workload is set up, run the
   workload until it ends or the power fails, then crash and recover
   the machine and collect every violation: a workload error, a failed
   recovery, a structural check, and [check]'s own oracle. *)
let run_armed (m : Machine.t) ~rng ~seed ?crash_point workload ~check =
  let arm =
    Faultsim.arm ?crash_after:crash_point ~read_error_rate:0.02
      ~rng:(Rng.split rng) m.disks
  in
  let crashed, workload_err =
    match workload () with
    | () -> (false, None)
    | exception Disk.Injected_crash -> (true, None)
    | exception e -> (false, Some (Printexc.to_string e))
  in
  let writes = Faultsim.writes arm in
  Faultsim.disarm arm;
  let violations =
    ref (match workload_err with Some e -> [ "workload: " ^ e ] | None -> [])
  in
  let push e = violations := e :: !violations in
  (try
     Machine.crash_and_recover m;
     (try Machine.check m
      with e -> push ("structural check: " ^ Printexc.to_string e));
     List.iter push (check ())
   with e -> push ("recovery failed: " ^ Printexc.to_string e));
  {
    setup = m.setup;
    seed;
    crash_point;
    writes;
    crashed;
    violations = List.rev !violations;
    stats = m.stats;
  }

(* Page-level workload ---------------------------------------------------- *)

let files = [ "/tpcb/acct"; "/tpcb/tell"; "/tpcb/branch"; "/tpcb/hist" ]
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

(* Create the working files and give every page committed initial
   contents, recorded as setup writes; the caller makes them durable
   before arming the injector. *)
let setup_pages oracle model fresh_page (v : Vfs.t) ps =
  v.Vfs.mkdir "/tpcb";
  List.iter
    (fun path ->
      let fd = v.Vfs.create path in
      for p = 0 to npages - 1 do
        let data = fresh_page () in
        v.Vfs.write fd ~off:(p * ps) data;
        Hashtbl.replace model (path, p) data;
        Oracle.record oracle (Oracle.Setup_write { file = path; page = p; data })
      done)
    files

(* Transactions over the working files, in either transaction system. *)
let begin_txn backend (v : Vfs.t) =
  match backend with
  | Tpcb.Kernel kt ->
    let fs = Ktxn.lfs kt in
    let inums = List.map (fun f -> (f, Lfs.inum_of fs f)) files in
    let inum f = List.assoc f inums in
    fun () ->
      let h = Ktxn.txn_begin kt in
      {
        id = Ktxn.txn_id h;
        twrite = (fun f p d -> Ktxn.write_page kt h ~inum:(inum f) ~page:p d);
        tread =
          (fun f p -> Bytes.copy (Ktxn.read_page kt h ~inum:(inum f) ~page:p));
        tcommit = (fun () -> Ktxn.txn_commit kt h);
        tabort = (fun () -> Ktxn.txn_abort kt h);
      }
  | Tpcb.User env ->
    let fds = List.map (fun f -> (f, v.Vfs.open_file f)) files in
    let fd f = List.assoc f fds in
    fun () ->
      let h = Libtp.begin_txn env in
      {
        id = Libtp.txn_id h;
        twrite = (fun f p d -> Libtp.write_page env h ~file:(fd f) ~page:p d);
        tread =
          (fun f p -> Bytes.copy (Libtp.read_page env h ~file:(fd f) ~page:p));
        tcommit = (fun () -> Libtp.commit env h);
        tabort = (fun () -> Libtp.abort env h);
      }

(* One transaction mixes a few page writes with reads that are verified
   live against the acknowledged model (committed state + own writes) —
   so corruption visible before any crash is caught too. *)
let run_pages begin_txn oracle rng fresh_page model ~ps ~txns =
  let zeros = Bytes.make ps '\000' in
  for _ = 1 to txns do
    let t = begin_txn () in
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

let run_one ?config:cfg setup ~seed ~txns ?crash_point () =
  let cfg = match cfg with Some c -> c | None -> config setup in
  let m = Machine.boot cfg setup in
  let rng = Rng.create ~seed in
  let ps = cfg.Config.disk.block_size in
  let stamp = ref 0 in
  let fresh_page () =
    incr stamp;
    page_image ~ps ~seed ~stamp:!stamp
  in
  let oracle = Oracle.create ~page_size:ps in
  let model = Hashtbl.create 64 in
  setup_pages oracle model fresh_page (Machine.vfs m) ps;
  let backend =
    Machine.open_txn ~protect:files ~checkpoint_every:25 m ~pool_pages:16
  in
  Machine.sync m;
  let begin_txn = begin_txn backend (Machine.vfs m) in
  run_armed m ~rng ~seed ?crash_point
    (fun () -> run_pages begin_txn oracle rng fresh_page model ~ps ~txns)
    ~check:(fun () ->
      let v = Machine.vfs m in
      let read_page f p =
        let b = v.Vfs.read (v.Vfs.open_file f) ~off:(p * ps) ~len:ps in
        if Bytes.length b = ps then b
        else begin
          let out = Bytes.make ps '\000' in
          Bytes.blit b 0 out 0 (min ps (Bytes.length b));
          out
        end
      in
      List.map
        (Format.asprintf "%a" Oracle.pp_violation)
        (Oracle.check oracle ~read_page
           ~size:(fun f -> v.Vfs.size (v.Vfs.open_file f))))

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
let run_one_tpcb_mpl ?config:cfg setup ~seed ~txns ~mpl ?crash_point () =
  let cfg = match cfg with Some c -> c | None -> config ~mpl setup in
  let m = Machine.boot cfg setup in
  let rng = Rng.create ~seed in
  let scale = tpcb_scale in
  let db = Machine.build m ~rng ~scale in
  let backend = Machine.open_txn ~checkpoint_every:50 m ~pool_pages:64 in
  run_armed m ~rng ~seed ?crash_point
    (fun () -> ignore (Machine.run_window m db backend ~rng ~txns ~mpl))
    ~check:(fun () ->
      (* Workers bump "tpcb.commits" immediately after [txn_commit]
         returns, with no intervening yield — exactly the
         acknowledgement point; recovery runs no workers. *)
      let acked = Stats.count m.stats "tpcb.commits" in
      let v = Machine.vfs m in
      let db' = Tpcb.open_db v ~scale in
      let consistency =
        match Tpcb.check_consistency m.clock m.stats m.cfg db' v with
        | () -> []
        | exception e -> [ "tpcb consistency: " ^ Printexc.to_string e ]
      in
      let h = Tpcb.history_count m.clock m.stats m.cfg db' v in
      consistency
      @
      if h < acked || h > acked + mpl then
        [
          Printf.sprintf "history count %d outside [%d, %d]" h acked
            (acked + mpl);
        ]
      else [])

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

let sweep ?progress ?config setup ~seed ~txns ~points =
  sweep_runs ?progress
    (fun ?crash_point () -> run_one ?config setup ~seed ~txns ?crash_point ())
    ~points

let sweep_tpcb_mpl ?progress ?config setup ~seed ~txns ~mpl ~points =
  sweep_runs ?progress
    (fun ?crash_point () ->
      run_one_tpcb_mpl ?config setup ~seed ~txns ~mpl ?crash_point ())
    ~points
