(* Shape tests for the experiment harness: tiny-scale versions of every
   figure must reproduce the paper's qualitative claims. These are the
   same code paths the bench runs, pinned down as assertions. *)

let tiny_scale = 1
let tiny_txns = 800

let cfg () = Config.scaled ~factor:0.1 Config.default

let test_fig4_shape () =
  let f =
    Fig4.run ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns ~seeds:[ 1 ] ()
  in
  match f.Fig4.bars with
  | [ ro; lu; lk ] ->
    Alcotest.(check bool)
      (Printf.sprintf "LFS/user (%.2f) beats read-optimized (%.2f)"
         lu.Fig4.tps_mean ro.Fig4.tps_mean)
      true
      (lu.Fig4.tps_mean > ro.Fig4.tps_mean);
    Alcotest.(check bool)
      (Printf.sprintf "kernel (%.2f) within 15%% of user (%.2f)"
         lk.Fig4.tps_mean lu.Fig4.tps_mean)
      true
      (lk.Fig4.tps_mean > 0.85 *. lu.Fig4.tps_mean);
    List.iter
      (fun b -> Alcotest.(check bool) "positive TPS" true (b.Fig4.tps_mean > 0.0))
      f.Fig4.bars
  | _ -> Alcotest.fail "expected three bars"

let test_fig4_deterministic_per_seed () =
  let one () =
    Fig4.run ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:300 ~seeds:[ 7 ] ()
  in
  let a = one () and b = one () in
  List.iter2
    (fun x y ->
      Alcotest.(check (float 1e-9)) "same seed, same TPS" x.Fig4.tps_mean
        y.Fig4.tps_mean)
    a.Fig4.bars b.Fig4.bars

let test_fig5_shape () =
  let f = Fig5.run ~config:(cfg ()) ~tps_scale:tiny_scale () in
  Alcotest.(check int) "three benchmarks" 3 (List.length f.Fig5.rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s within 2%% (got %+.2f%%)" r.Fig5.benchmark
           r.Fig5.delta_pct)
        true
        (Float.abs r.Fig5.delta_pct < 2.0))
    f.Fig5.rows

let test_fig6_shape () =
  let f = Fig6.run ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns () in
  Alcotest.(check bool)
    (Printf.sprintf "LFS scan (%.1fs) slower than read-optimized (%.1fs)"
       f.Fig6.lfs.Fig6.scan_s f.Fig6.readopt.Fig6.scan_s)
    true
    (f.Fig6.lfs.Fig6.scan_s > f.Fig6.readopt.Fig6.scan_s);
  (match f.Fig6.readopt.Fig6.contiguity with
  | Some c -> Alcotest.(check bool) "read-optimized layout stayed sequential" true (c > 0.95)
  | None -> Alcotest.fail "expected contiguity for the read-optimized side")

let test_fig7_crossover_math () =
  (* Synthetic inputs with a known crossover. *)
  let fig4 =
    {
      Fig4.bars =
        [
          {
            Fig4.setup = Machine.Ffs_user;
            tps_mean = 10.0;
            tps_sd = 0.0;
            per_seed = [ 10.0 ];
            cleaner_stall_mean_s = 0.0;
            paper_tps = None;
            runs = [];
          };
          {
            Fig4.setup = Machine.Lfs_user;
            tps_mean = 12.5;
            tps_sd = 0.0;
            per_seed = [ 12.5 ];
            cleaner_stall_mean_s = 0.0;
            paper_tps = None;
            runs = [];
          };
        ];
      scale = Tpcb.scale_for_tps 1;
      txns = 0;
      config = Config.default;
    }
  in
  let side name tps scan_s =
    { Fig6.fs_name = name; tps; scan_s; contiguity = None; stats = Stats.create () }
  in
  let fig6 =
    {
      Fig6.readopt = side "ffs" 10.0 100.0;
      lfs = side "lfs" 12.5 200.0;
      txns = 0;
      config = Config.default;
    }
  in
  let f = Fig7.of_measurements ~fig4 ~fig6 in
  (* 1/10 - 1/12.5 = 0.02 s/txn slope difference; 100 s scan difference
     -> 5000 transactions. *)
  (match f.Fig7.crossover_txns with
  | Some c -> Alcotest.(check (float 0.5)) "crossover" 5000.0 c
  | None -> Alcotest.fail "expected a crossover");
  (* At the crossover both totals are equal. *)
  List.iter
    (fun (n, ro, lfs) ->
      if n = 5000 then Alcotest.(check (float 0.5)) "equal at crossover" ro lfs)
    f.Fig7.series

let test_fig7_no_crossover () =
  let side tps scan =
    {
      Fig6.fs_name = "";
      tps;
      scan_s = scan;
      contiguity = None;
      stats = Stats.create ();
    }
  in
  let bar setup tps =
    {
      Fig4.setup;
      tps_mean = tps;
      tps_sd = 0.0;
      per_seed = [ tps ];
      cleaner_stall_mean_s = 0.0;
      paper_tps = None;
      runs = [];
    }
  in
  (* LFS faster at everything: no crossover. *)
  let f =
    Fig7.of_measurements
      ~fig4:
        {
          Fig4.bars = [ bar Machine.Ffs_user 10.0; bar Machine.Lfs_user 12.0 ];
          scale = Tpcb.scale_for_tps 1;
          txns = 0;
          config = Config.default;
        }
      ~fig6:
        {
          Fig6.readopt = side 10.0 200.0;
          lfs = side 12.0 100.0;
          txns = 0;
          config = Config.default;
        }
  in
  Alcotest.(check bool) "no crossover" true (f.Fig7.crossover_txns = None)

let test_coalescing_ablation_shape () =
  let r = Ablation.coalescing ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns () in
  Alcotest.(check bool) "fragmented before" true
    (r.Ablation.contiguity_before < r.Ablation.contiguity_after);
  Alcotest.(check bool)
    (Printf.sprintf "scan improves (%.1fs -> %.1fs)" r.Ablation.scan_before_s
       r.Ablation.scan_after_s)
    true
    (r.Ablation.scan_after_s < r.Ablation.scan_before_s)

let test_tas_ablation_shape () =
  let t = Ablation.test_and_set ~config:(cfg ()) ~tps_scale:tiny_scale ~txns:tiny_txns () in
  match t.Ablation.rows with
  | [ semaphores; tas; _kernel ] ->
    Alcotest.(check bool)
      (Printf.sprintf "test-and-set speeds up user level (%.2f -> %.2f)"
         semaphores.Ablation.tps tas.Ablation.tps)
      true
      (tas.Ablation.tps > semaphores.Ablation.tps)
  | _ -> Alcotest.fail "expected three rows"

let test_cleanersweep_shape () =
  let arms =
    [
      { Cleanersweep.policy = `Greedy; segregate = false };
      { Cleanersweep.policy = `Cost_benefit; segregate = true };
    ]
  in
  let s =
    Cleanersweep.run ~tps_scale:tiny_scale ~txns:120 ~seed:1 ~utils:[ 50; 80 ]
      ~mpls:[ 1; 2 ] ~arms ()
  in
  Alcotest.(check int) "full grid" (2 * 2 * 2) (List.length s.Expcommon.points);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "positive TPS at util %d mpl %d" p.Cleanersweep.util_pct
           p.Cleanersweep.mpl)
        true
        (p.Cleanersweep.run.Expcommon.result.Tpcb.tps > 0.0);
      (* The counter-consistency invariant the bench-check rule enforces:
         every cleaned segment (copying or dead-reclaim) observes exactly
         one sample in the clean-latency histogram. *)
      Alcotest.(check int) "segments_cleaned = cleans_observed"
        p.Cleanersweep.segments_cleaned p.Cleanersweep.cleans_observed;
      Alcotest.(check bool) "write cost non-negative" true
        (p.Cleanersweep.write_cost >= 0.0))
    s.Expcommon.points;
  (* The fuller disk must actually exercise the cleaner somewhere. *)
  Alcotest.(check bool) "cleaner ran at 80% utilization" true
    (List.exists
       (fun p ->
         p.Cleanersweep.util_pct = 80 && p.Cleanersweep.segments_cleaned > 0)
       s.Expcommon.points);
  (* Every point, MPL 1 included, runs the background daemon, which
     cleans ahead with the arm's victim policy — the only path the
     policy drives (on-demand cleaning is always greedy). *)
  match
    List.find_opt
      (fun p ->
        p.Cleanersweep.arm.Cleanersweep.policy = `Cost_benefit
        && p.Cleanersweep.util_pct = 80
        && p.Cleanersweep.mpl = 1)
      s.Expcommon.points
  with
  | Some p ->
    Alcotest.(check bool)
      (Printf.sprintf "cost-benefit idle-cleans at MPL 1 (%d)"
         p.Cleanersweep.idle_cleans)
      true
      (p.Cleanersweep.idle_cleans > 0)
  | None -> Alcotest.fail "missing cost-benefit MPL-1 point at 80%"

(* Artifact checks: small literal documents fed to each experiment's
   [check] — one that passes, and one per rule that breaks it. No
   simulation runs. *)

let sweep_doc ?(txns = 100) name points =
  Json.Obj
    [
      ("meta", Json.Obj [ ("name", Json.Str name) ]);
      ( "data",
        Json.Obj [ ("txns", Json.Int txns); ("points", Json.List points) ] );
    ]

(* [set ?where key v points]: field [key] of every point satisfying
   [where] replaced by [v], or dropped when [v] is [None]. *)
let set ?(where = fun _ -> true) key v points =
  let field (k, x) =
    if k = key then Option.map (fun v -> (k, v)) v else Some (k, x)
  in
  List.map
    (function
      | Json.Obj kvs as p when where p -> Json.Obj (List.filter_map field kvs)
      | p -> p)
    points

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let expect_ok errors = Alcotest.(check (list string)) "no violations" [] errors

let expect_violation sub errors =
  if not (List.exists (fun e -> contains e sub) errors) then
    Alcotest.failf "expected a violation mentioning %S, got [%s]" sub
      (String.concat "; " errors)

let is key v p = Json.member key p = Some v

let mpl_point ?(grain = "page") ?(batch = 2.0) ~mpl tps =
  Json.Obj
    [
      ("mpl", Json.Int mpl);
      ("group_size", Json.Int 8);
      ("group_timeout_s", Json.Float 0.05);
      ("lock_grain", Json.Str grain);
      ("tps", Json.Float tps);
      ("txns", Json.Int 100);
      ("mean_commit_batch", Json.Float batch);
      ("group_flushes", Json.Int 40);
      ("lock_wait_p99_s", Json.Float 0.01);
    ]

let mpl_points =
  [
    mpl_point ~mpl:1 ~batch:1.0 10.0;
    mpl_point ~mpl:8 20.0;
    mpl_point ~mpl:16 20.0;
    mpl_point ~grain:"record" ~mpl:16 30.0;
  ]

let test_check_mplsweep () =
  let check points = Mplsweep.check (sweep_doc "mplsweep" points) in
  expect_ok (check mpl_points);
  expect_violation "no point achieved a mean commit batch > 1"
    (check (set "mean_commit_batch" (Some (Json.Float 1.0)) mpl_points));
  expect_violation "TPS at MPL 8 (5.00) not above MPL 1 (10.00)"
    (check
       (set ~where:(is "mpl" (Json.Int 8)) "tps" (Some (Json.Float 5.0))
          mpl_points));
  expect_violation
    "record-grain TPS at MPL 16 (15.00) not above page grain (20.00)"
    (check
       (set ~where:(is "lock_grain" (Json.Str "record")) "tps"
          (Some (Json.Float 15.0)) mpl_points));
  expect_violation "mplsweep point missing field lock_wait_p99_s"
    (check (set "lock_wait_p99_s" None mpl_points))

let disk_point ~ndisks ~log_disk ?(busy = []) tps =
  Json.Obj
    [
      ( "label",
        Json.Str (Printf.sprintf "%d%s" ndisks (if log_disk then "+log" else "")) );
      ("ndisks", Json.Int ndisks);
      ("log_disk", Json.Bool log_disk);
      ("mpl", Json.Int 8);
      ("tps", Json.Float tps);
      ("txns", Json.Int 100);
      ( "disks",
        Json.List
          (List.map
             (fun (d, b) ->
               Json.Obj [ ("disk", Json.Str d); ("busy_s", Json.Float b) ])
             busy) );
    ]

(* The log spindle is far busier than any data disk; only the data
   spindles count towards stripe balance. *)
let stripe ?(disk3 = 1.5) () =
  [ ("disk0", 1.0); ("disk1", 1.2); ("disk2", 1.1); ("disk3", disk3);
    ("disklog", 9.0) ]

let test_check_disksweep () =
  let check points = Disksweep.check (sweep_doc "disksweep" points) in
  let points ?(dedicated = 15.0) ?(striped = 20.0) ?disk3 () =
    [
      disk_point ~ndisks:1 ~log_disk:false 10.0;
      disk_point ~ndisks:1 ~log_disk:true dedicated;
      disk_point ~ndisks:4 ~log_disk:true ~busy:(stripe ?disk3 ()) striped;
    ]
  in
  expect_ok (check (points ()));
  expect_violation "TPS(1+log) (8.00) not above TPS(1 shared) (10.00)"
    (check (points ~dedicated:8.0 ()));
  expect_violation "TPS(4+log) (9.00) not above TPS(1 shared) (10.00)"
    (check (points ~striped:9.0 ()));
  expect_violation "4-disk stripe busy times unbalanced"
    (check (points ~disk3:3.0 ()))

let log_point ?(force_p99 = [ ("log", 0.02) ]) ~streams tps =
  Json.Obj
    [
      ("streams", Json.Int streams);
      ("mpl", Json.Int 16);
      ("tps", Json.Float tps);
      ("txns", Json.Int 100);
      ("mean_commit_batch", Json.Float 3.0);
      ("dep_checks", Json.Int 10);
      ("dep_forces", Json.Int 2);
      ( "force_p99",
        Json.List
          (List.map
             (fun (s, p) ->
               Json.Obj [ ("stream", Json.Str s); ("p99_s", Json.Float p) ])
             force_p99) );
    ]

let test_check_logsweep () =
  let check points = Logsweep.check (sweep_doc "logsweep" points) in
  let four = [ ("s0", 0.01); ("s1", 0.01); ("s2", 0.01); ("s3", 0.01) ] in
  let points four_tps =
    [ log_point ~streams:1 10.0; log_point ~streams:4 ~force_p99:four four_tps ]
  in
  expect_ok (check (points 15.0));
  expect_violation
    "TPS(4 streams) (9.00) not above TPS(1 stream) (10.00) at MPL 16"
    (check (points 9.0));
  expect_violation "logsweep: force_p99 empty"
    (check [ log_point ~streams:1 ~force_p99:[] 10.0 ]);
  expect_violation "logsweep: force_p99 entry missing stream/p99_s"
    (check
       (set "force_p99"
          (Some (Json.List [ Json.Obj [ ("stream", Json.Str "log") ] ]))
          [ log_point ~streams:1 10.0 ]))

let cleaner_point ~policy ~segregate ~util ?(cleaned = 3) ?(observed = 3) tps =
  Json.Obj
    [
      ("util_pct", Json.Int util);
      ("mpl", Json.Int 8);
      ("policy", Json.Str policy);
      ("segregate", Json.Bool segregate);
      ("arm", Json.Str (policy ^ if segregate then "+seg" else ""));
      ("tps", Json.Float tps);
      ("txns", Json.Int 100);
      ("stall_p99_s", Json.Float 0.1);
      ("write_cost", Json.Float 0.5);
      ("segments_cleaned", Json.Int cleaned);
      ("cleans_observed", Json.Int observed);
    ]

let test_check_cleanersweep () =
  let check points = Cleanersweep.check (sweep_doc "cleanersweep" points) in
  let points ?(cb_full = 8.0) ?observed () =
    [
      cleaner_point ~policy:"greedy" ~segregate:false ~util:50 10.0;
      cleaner_point ~policy:"greedy" ~segregate:false ~util:80 ?observed 5.0;
      cleaner_point ~policy:"cost-benefit" ~segregate:true ~util:50 10.0;
      cleaner_point ~policy:"cost-benefit" ~segregate:true ~util:80 cb_full;
    ]
  in
  expect_ok (check (points ()));
  expect_violation
    "segments_cleaned (3) != cleans_observed (2) at util 80% mpl 8 (greedy)"
    (check (points ~observed:2 ()));
  expect_violation
    "cost-benefit+seg keeps 40.0% of its 50%-full TPS at 80% full (MPL 8) — \
     not above greedy's 50.0%"
    (check (points ~cb_full:4.0 ()))

let test_check_shared_invariants () =
  let check ?txns points = Mplsweep.check (sweep_doc ?txns "mplsweep" points) in
  expect_violation "mplsweep: data.points missing or empty" (check []);
  expect_violation "mplsweep: point 0 txns (100) != data.txns (120)"
    (check ~txns:120 mpl_points);
  expect_violation "mplsweep: point 1 tps (0) not above 0"
    (check
       (set ~where:(is "mpl" (Json.Int 8)) "tps" (Some (Json.Float 0.0))
          mpl_points))

let envelope name =
  Json.of_string
    (Printf.sprintf
       {|{"meta": {"name": %S, "config": {"fs": {}}},
          "data": {"stats": {
            "counters": {"tpcb.txns": 5},
            "histograms": {"tpcb.txn": {"count": 5, "p50": 0.1, "p95": 0.2,
                                        "p99": 0.3, "max": 0.4,
                                        "buckets": []}}}}}|}
       name)

let test_check_artifact_names () =
  expect_ok (Artifact.check (envelope "fig4"));
  expect_violation "unknown artifact name \"mplswep\""
    (Artifact.check (envelope "mplswep"));
  (* A known sweep name brings that sweep's rules along. *)
  expect_violation "mplsweep: data.points missing or empty"
    (Artifact.check (envelope "mplsweep"));
  expect_violation "all counters are zero"
    (Artifact.check
       (Json.of_string
          {|{"meta": {"name": "fig5", "config": {"a": 1}},
             "data": {"counters": {"x": 0}, "histograms": {}}}|}))

(* LIBTP on LFS at MPL 2 with the load-adaptive cleaner: a worker's
   queued read of a block whose segment write was issued but still
   waited for the arm once returned the old platter bytes, and the run
   died with a missing account record. *)
let test_lfs_user_mpl2_reads () =
  let r =
    Expcommon.run_tpcb_mpl ~config:(Expcommon.scaled_config 1)
      ~scale:(Tpcb.scale_for_tps 1) ~txns:20 ~seed:1 ~mpl:2 Machine.Lfs_user
  in
  Alcotest.(check int) "all transactions commit" 20 r.Expcommon.result.Tpcb.txns

let test_stats_helpers () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Expcommon.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Expcommon.mean []);
  Alcotest.(check (float 1e-9)) "stdev constant" 0.0 (Expcommon.stdev [ 5.0; 5.0 ]);
  Alcotest.(check bool) "stdev positive" true (Expcommon.stdev [ 1.0; 3.0 ] > 0.0)

let () =
  Alcotest.run "tx_exp"
    [
      ( "figures",
        [
          Alcotest.test_case "fig4 shape" `Slow test_fig4_shape;
          Alcotest.test_case "fig4 deterministic" `Slow test_fig4_deterministic_per_seed;
          Alcotest.test_case "fig5 shape" `Slow test_fig5_shape;
          Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
          Alcotest.test_case "fig7 crossover math" `Quick test_fig7_crossover_math;
          Alcotest.test_case "fig7 no crossover" `Quick test_fig7_no_crossover;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "coalescing" `Slow test_coalescing_ablation_shape;
          Alcotest.test_case "test-and-set" `Slow test_tas_ablation_shape;
          Alcotest.test_case "cleanersweep" `Slow test_cleanersweep_shape;
        ] );
      ( "artifact checks",
        [
          Alcotest.test_case "mplsweep rules" `Quick test_check_mplsweep;
          Alcotest.test_case "disksweep rules" `Quick test_check_disksweep;
          Alcotest.test_case "logsweep rules" `Quick test_check_logsweep;
          Alcotest.test_case "cleanersweep rules" `Quick test_check_cleanersweep;
          Alcotest.test_case "shared point invariants" `Quick
            test_check_shared_invariants;
          Alcotest.test_case "artifact names" `Quick test_check_artifact_names;
        ] );
      ( "runs",
        [
          Alcotest.test_case "lfs-user MPL 2 reads the current blocks" `Slow
            test_lfs_user_mpl2_reads;
        ] );
      ("helpers", [ Alcotest.test_case "mean/stdev" `Quick test_stats_helpers ]);
    ]
