(* Fault-injection harness tests: the injector itself (tearing,
   read-error retries, determinism), short crash-point sweeps per
   backend that run on every `dune runtest`, a negative control — a
   deliberately broken recovery path must make the sweep light up — and
   a soak of every benchmarked configuration through the oracle.

   Set FAULTSIM_FULL=1 for the exhaustive sweeps (every crash point,
   larger workloads); by default those run a small sampled version. *)

let full = Sys.getenv_opt "FAULTSIM_FULL" <> None

(* The sweep machine of [setup] at MPL [mpl] with its placement,
   locking and disk size adjusted. *)
let config ?(ndisks = 1) ?(log_disk = false) ?(log_streams = 1)
    ?(lock_grain = `Page) ?(nblocks = 4096) ~mpl setup =
  let c = Sweep.config ~mpl setup in
  {
    c with
    Config.disk = { c.Config.disk with nblocks };
    fs = { c.Config.fs with ndisks; log_disk; log_streams; lock_grain };
  }

let sweep_tpcb ?ndisks ?log_disk ?log_streams ?lock_grain ?nblocks ~mpl
    setup =
  Sweep.sweep_tpcb_mpl
    ~config:
      (config ?ndisks ?log_disk ?log_streams ?lock_grain ?nblocks ~mpl setup)
    setup ~mpl

(* Injector ------------------------------------------------------------ *)

let test_tear_multiblock_write () =
  let m = Tutil.machine () in
  let bs = m.Tutil.cfg.Config.disk.block_size in
  let f = Faultsim.arm ~crash_after:5 m.Tutil.disks in
  let first = Tutil.payload 1 (3 * bs) in
  Disk.write_run m.Tutil.disk 100 first;
  let torn = Tutil.payload 2 (4 * bs) in
  (match Disk.write_run m.Tutil.disk 200 torn with
  | () -> Alcotest.fail "expected Injected_crash"
  | exception Disk.Injected_crash -> ());
  Alcotest.(check bool) "crashed" true (Faultsim.crashed f);
  Alcotest.(check int) "writes counted through the tear" 7 (Faultsim.writes f);
  Tutil.check_bytes "pre-crash write intact" (Bytes.sub first 0 bs)
    (Disk.peek m.Tutil.disk 100);
  (* crash_after 5 with 3 blocks already down: exactly 2 of the 4 persist *)
  Tutil.check_bytes "torn block 0" (Bytes.sub torn 0 bs) (Disk.peek m.Tutil.disk 200);
  Tutil.check_bytes "torn block 1" (Bytes.sub torn bs bs)
    (Disk.peek m.Tutil.disk 201);
  Tutil.check_bytes "beyond the tear untouched" (Bytes.make bs '\000')
    (Disk.peek m.Tutil.disk 202);
  Faultsim.disarm f;
  Disk.write_run m.Tutil.disk 300 torn;
  Tutil.check_bytes "disarmed disk writes normally" (Bytes.sub torn (3 * bs) bs)
    (Disk.peek m.Tutil.disk 303)

let test_read_errors_are_transient () =
  let m = Tutil.machine () in
  let bs = m.Tutil.cfg.Config.disk.block_size in
  let data = Tutil.payload 3 bs in
  Disk.write m.Tutil.disk 50 data;
  let rng = Rng.create ~seed:42 in
  let f = Faultsim.arm ~read_error_rate:1.0 ~rng m.Tutil.disks in
  for _ = 1 to 6 do
    Tutil.check_bytes "read survives transient errors" data
      (Disk.read m.Tutil.disk 50)
  done;
  Faultsim.disarm f;
  Alcotest.(check bool) "retries were recorded" true
    (Stats.count m.Tutil.stats "disk.read_retries" > 0)

let test_rate_without_rng_rejected () =
  let m = Tutil.machine () in
  match Faultsim.arm ~read_error_rate:0.5 m.Tutil.disks with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Every run is a pure function of (seed, crash_point): replaying one
   must reproduce the identical outcome, byte counts and all. *)
let test_replay_is_deterministic () =
  let run () =
    Sweep.run_one Machine.Lfs_kernel ~seed:9 ~txns:5 ~crash_point:37 ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcome" (Sweep.describe a)
    (Sweep.describe b);
  Alcotest.(check int) "identical write counts" a.Sweep.writes b.Sweep.writes;
  Alcotest.(check bool) "both crashed the same way" a.Sweep.crashed
    b.Sweep.crashed

(* Sweeps --------------------------------------------------------------- *)

let assert_clean r =
  (match r.Sweep.failures with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "\n" (List.map Sweep.describe fs)));
  Alcotest.(check bool) "run produced writes to crash into" true
    (r.Sweep.total_writes > 5)

let sweep_pages backend () =
  let points = if full then 0 else 25 in
  let txns = if full then 20 else 6 in
  assert_clean (Sweep.sweep backend ~seed:7 ~txns ~points)

let sweep_tpcb_kernel () =
  if full then begin
    let r = sweep_tpcb Machine.Lfs_kernel ~seed:1 ~txns:40 ~mpl:1 ~points:0 in
    Alcotest.(check bool)
      (Printf.sprintf "at least 200 crash points (got %d)" r.Sweep.total_writes)
      true
      (r.Sweep.total_writes >= 200);
    assert_clean r
  end
  else
    assert_clean
      (sweep_tpcb Machine.Lfs_kernel ~seed:1 ~txns:5 ~mpl:1 ~points:8)

let sweep_tpcb_ffs () =
  if full then begin
    let r = sweep_tpcb Machine.Ffs_user ~seed:1 ~txns:100 ~mpl:1 ~points:0 in
    Alcotest.(check bool)
      (Printf.sprintf "at least 200 crash points (got %d)" r.Sweep.total_writes)
      true
      (r.Sweep.total_writes >= 200);
    assert_clean r
  end
  else
    assert_clean (sweep_tpcb Machine.Ffs_user ~seed:1 ~txns:6 ~mpl:1 ~points:8)

let sweep_tpcb_lfs_user () =
  assert_clean (sweep_tpcb Machine.Lfs_user ~seed:2 ~txns:5 ~mpl:1 ~points:8)

(* Record-grain locking needs no second process: a single worker takes
   the record locks and their intention-mode parents on every access. *)
let sweep_tpcb_lfs_user_record_grain () =
  assert_clean
    (sweep_tpcb ~lock_grain:`Record Machine.Lfs_user ~seed:2 ~txns:5
       ~mpl:1 ~points:8)

(* MPL 2 on the discrete-event scheduler with group commit enabled:
   crash points land mid-rendezvous, with one committer possibly
   flushed-but-parked and another unflushed. The acknowledged-commit
   lower bound must still hold. *)
let sweep_tpcb_mpl2 () =
  if full then
    assert_clean
      (sweep_tpcb Machine.Lfs_kernel ~seed:3 ~txns:20 ~mpl:2 ~points:0)
  else
    assert_clean
      (sweep_tpcb Machine.Lfs_kernel ~seed:3 ~txns:6 ~mpl:2 ~points:10)

(* Multi-spindle crash coverage: two striped data disks plus a dedicated
   log spindle, MPL 2. A crash now interrupts I/O that spans spindles —
   segment writes striped across the data disks and WAL flushes on the
   log disk — and recovery must roll forward from a log whose home file
   system itself went through crash/remount/fsck. *)
let sweep_tpcb_multidisk () =
  if full then
    assert_clean
      (sweep_tpcb ~ndisks:2 ~log_disk:true Machine.Lfs_user ~seed:5
         ~txns:20 ~mpl:2 ~points:0)
  else
    assert_clean
      (sweep_tpcb ~ndisks:2 ~log_disk:true Machine.Lfs_user ~seed:5
         ~txns:6 ~mpl:2 ~points:10)

(* Record-grain locking on the same 2-disks-plus-log topology: commits
   overlap far more than at page grain (the hot history tail page no
   longer serializes committers), so crash points land inside
   concurrent log forces and partial-segment writes. Aborted history
   appends leave zeroed holes at this grain; the oracle counts only
   non-hole records, which must still lie in [acked, acked + mpl]. *)
let sweep_tpcb_record_grain () =
  if full then
    assert_clean
      (sweep_tpcb ~ndisks:2 ~log_disk:true ~lock_grain:`Record
         Machine.Lfs_user ~seed:11 ~txns:20 ~mpl:2 ~points:0)
  else
    assert_clean
      (sweep_tpcb ~ndisks:2 ~log_disk:true ~lock_grain:`Record
         Machine.Lfs_user ~seed:11 ~txns:6 ~mpl:2 ~points:10)

(* Two parallel WAL streams on the 2-disks-plus-log topology: every
   stream lives in its own FFS on its own spindle, all of which crash,
   remount and fsck together; recovery must merge the streams by
   vector-LSN dependency order, with crash points that can strand one
   stream's tail behind a dependency lost on the other. Record grain
   keeps committers — and so the two group-commit rendezvous — genuinely
   concurrent. *)
let sweep_tpcb_multistream () =
  if full then
    assert_clean
      (sweep_tpcb ~ndisks:2 ~log_disk:true ~log_streams:2
         ~lock_grain:`Record Machine.Lfs_user ~seed:7 ~txns:20 ~mpl:2 ~points:0)
  else
    assert_clean
      (sweep_tpcb ~ndisks:2 ~log_disk:true ~log_streams:2
         ~lock_grain:`Record Machine.Lfs_user ~seed:7 ~txns:6 ~mpl:2 ~points:10)

(* Crash sweep under genuine cleaning pressure: a 640-block disk (20
   segments at the sweep's 32-block geometry) keeps the kernel cleaner —
   cost-benefit victim selection, hot/cold segregation and the adaptive
   daemon, all on by default — running throughout the workload, so crash
   points land inside segment cleaning and cold-survivor relocation.
   Recovery from a crash mid-relocation must still satisfy the TPC-B
   oracle. *)
let sweep_tpcb_cleaning_pressure () =
  if full then
    assert_clean
      (sweep_tpcb ~nblocks:640 Machine.Lfs_kernel ~seed:13 ~txns:20
         ~mpl:2 ~points:0)
  else
    assert_clean
      (sweep_tpcb ~nblocks:640 Machine.Lfs_kernel ~seed:13 ~txns:6
         ~mpl:2 ~points:10)

(* The crash sweep for LIBTP on LFS under cleaning pressure, at MPL 4
   with the load-adaptive daemon (on by default) cleaning ahead between
   commits: crash points land inside idle-time cleaning while workers
   park on queued reads and the group-commit rendezvous. The disk (14
   segments) is sized so the fault-free run really cleans. *)
let adaptive_nblocks = 448

let sweep_tpcb_lfs_user_adaptive () =
  let txns = if full then 80 else 20 in
  let base =
    Sweep.run_one_tpcb_mpl
      ~config:(config ~nblocks:adaptive_nblocks ~mpl:4 Machine.Lfs_user)
      Machine.Lfs_user ~seed:17 ~txns ~mpl:4 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "the fault-free run cleans (%d segments)"
       (Stats.count base.Sweep.stats "cleaner.segments"))
    true
    (Stats.count base.Sweep.stats "cleaner.segments" > 0);
  assert_clean
    (sweep_tpcb ~nblocks:adaptive_nblocks Machine.Lfs_user ~seed:17 ~txns
       ~mpl:4 ~points:(if full then 0 else 10))

(* Config-space soak ------------------------------------------------------ *)

(* Every benchmarked configuration runs through the crash oracle,
   fault-free: each run still ends in a crash and recovery, the TPC-B
   consistency identity and the history bound. Axes a setup ignores are
   skipped — the WAL stream count on the kernel setup, which has no WAL,
   and the cleaner on the read-optimized file system. Two streams get a
   log spindle each, as in the log sweep. At MPL 8 and 16 each case also
   runs with group commit (8 commits or 20 ms, the parallel-WAL
   benchmark's setting), so deferred commits meet the oracle too. The
   disk is small enough that every LFS run with its WAL on the data disk
   cleans. *)
let soak_nblocks = 576
let soak_txns = 300

type soak = {
  setup : Machine.setup;
  mpl : int;
  grain : [ `Page | `Record ];
  streams : int;
  cleaner : ((string * [ `Greedy | `Cost_benefit ] * bool) * bool) option;
      (* (name, policy, segregate), adaptive *)
  group : bool; (* group commit: 8 commits or 20 ms *)
}

let soak_cases =
  let cleaners =
    List.concat_map
      (fun c -> [ Some (c, true); Some (c, false) ])
      [ ("greedy", `Greedy, false); ("cb+seg", `Cost_benefit, true) ]
  in
  List.concat_map
    (fun setup ->
      List.concat_map
        (fun (mpl, group) ->
          List.concat_map
            (fun grain ->
              List.concat_map
                (fun streams ->
                  List.map
                    (fun cleaner ->
                      { setup; mpl; grain; streams; cleaner; group })
                    (if setup = Machine.Ffs_user then [ None ] else cleaners))
                (if setup = Machine.Lfs_kernel then [ 1 ] else [ 1; 2 ]))
            [ `Page; `Record ])
        [
          (1, false); (8, false); (8, true); (16, false); (16, true);
        ])
    Machine.setups

let soak_case c =
  let name =
    Printf.sprintf "%s mpl%d %s s%d%s" (Machine.key c.setup) c.mpl
      (Config.name_of Config.lock_grains c.grain)
      c.streams
      (match c.cleaner with
      | None -> ""
      | Some ((key, _, _), adaptive) ->
        " " ^ key ^ if adaptive then " adaptive" else "")
    ^ if c.group then " gc8" else ""
  in
  let run () =
    let base =
      config ~nblocks:soak_nblocks ~lock_grain:c.grain ~log_streams:c.streams
        ~log_disk:(c.streams > 1) ~mpl:c.mpl c.setup
    in
    let fs =
      {
        base.Config.fs with
        group_commit_size = 8;
        group_commit_timeout_s = (if c.group then 0.02 else 0.0);
      }
    in
    let fs =
      match c.cleaner with
      | None -> fs
      | Some ((_, cleaner_policy, cleaner_segregate), cleaner_adaptive) ->
        { fs with cleaner_policy; cleaner_segregate; cleaner_adaptive }
    in
    let o =
      Sweep.run_one_tpcb_mpl ~config:{ base with Config.fs } c.setup ~seed:1
        ~txns:soak_txns ~mpl:c.mpl ()
    in
    if o.Sweep.violations <> [] then Alcotest.fail (Sweep.describe o);
    if c.setup <> Machine.Ffs_user && c.streams = 1 then
      Alcotest.(check bool) "the cleaner ran" true
        (Stats.count o.Sweep.stats "cleaner.segments" > 0);
    (* Deferred commits reached the rendezvous exactly when it is on. *)
    Alcotest.(check bool) "group-commit waits iff group commit is on" c.group
      (match
         Stats.histo o.Sweep.stats
           (if c.setup = Machine.Lfs_kernel then "ktxn.group_commit_wait"
            else "log.group_commit_wait")
       with
      | Some h -> Histo.count h > 0
      | None -> false)
  in
  Alcotest.test_case name `Quick run

(* Negative control: disable the roll-forward payload verification and
   the sweep must catch torn partial-segment writes that the hardened
   recovery path would have rejected. A harness that cannot detect a
   known-broken recovery proves nothing. *)
let test_broken_recovery_is_caught () =
  Lfs.test_disable_payload_check := true;
  Fun.protect
    ~finally:(fun () -> Lfs.test_disable_payload_check := false)
    (fun () ->
      let r = Sweep.sweep Machine.Lfs_kernel ~seed:3 ~txns:4 ~points:0 in
      Alcotest.(check bool) "sweep detects the broken recovery path" true
        (r.Sweep.failures <> []))

let () =
  Alcotest.run "faultsim"
    [
      ( "injector",
        [
          Alcotest.test_case "tears a multi-block write" `Quick
            test_tear_multiblock_write;
          Alcotest.test_case "read errors are transient" `Quick
            test_read_errors_are_transient;
          Alcotest.test_case "rate without rng rejected" `Quick
            test_rate_without_rng_rejected;
          Alcotest.test_case "replay is deterministic" `Quick
            test_replay_is_deterministic;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "pages / lfs-kernel" `Slow
            (sweep_pages Machine.Lfs_kernel);
          Alcotest.test_case "pages / lfs-user" `Slow
            (sweep_pages Machine.Lfs_user);
          Alcotest.test_case "pages / ffs-user" `Slow
            (sweep_pages Machine.Ffs_user);
          Alcotest.test_case "tpcb / lfs-kernel" `Slow sweep_tpcb_kernel;
          Alcotest.test_case "tpcb / lfs-user" `Slow sweep_tpcb_lfs_user;
          Alcotest.test_case "tpcb / ffs-user" `Slow sweep_tpcb_ffs;
          Alcotest.test_case "tpcb / lfs-kernel at MPL 2" `Slow sweep_tpcb_mpl2;
          Alcotest.test_case "tpcb / lfs-user 2+log at MPL 2" `Slow
            sweep_tpcb_multidisk;
          Alcotest.test_case "tpcb / lfs-user 2+log at MPL 2, record grain"
            `Slow sweep_tpcb_record_grain;
          Alcotest.test_case "tpcb / lfs-user 2+log at MPL 2, 2 streams"
            `Slow sweep_tpcb_multistream;
          Alcotest.test_case "tpcb / lfs-kernel under cleaning pressure"
            `Slow sweep_tpcb_cleaning_pressure;
          Alcotest.test_case "broken recovery is caught" `Slow
            test_broken_recovery_is_caught;
          Alcotest.test_case "tpcb / lfs-user, record grain" `Slow
            sweep_tpcb_lfs_user_record_grain;
          Alcotest.test_case
            "tpcb / lfs-user at MPL 4, adaptive cleaner under pressure" `Slow
            sweep_tpcb_lfs_user_adaptive;
        ] );
      ("soak", List.map soak_case soak_cases);
    ]
