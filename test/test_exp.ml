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
            Fig4.setup = Expcommon.Readopt_user;
            tps_mean = 10.0;
            tps_sd = 0.0;
            per_seed = [ 10.0 ];
            cleaner_stall_mean_s = 0.0;
            paper_tps = None;
            runs = [];
          };
          {
            Fig4.setup = Expcommon.Lfs_user;
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
          Fig4.bars = [ bar Expcommon.Readopt_user 10.0; bar Expcommon.Lfs_user 12.0 ];
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
  Alcotest.(check int) "full grid" (2 * 2 * 2) (List.length s.Cleanersweep.points);
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
    s.Cleanersweep.points;
  (* The fuller disk must actually exercise the cleaner somewhere. *)
  Alcotest.(check bool) "cleaner ran at 80% utilization" true
    (List.exists
       (fun p ->
         p.Cleanersweep.util_pct = 80 && p.Cleanersweep.segments_cleaned > 0)
       s.Cleanersweep.points);
  (* Every point, MPL 1 included, runs the background daemon, which
     cleans ahead with the arm's victim policy — the only path the
     policy drives (on-demand cleaning is always greedy). *)
  match
    List.find_opt
      (fun p ->
        p.Cleanersweep.arm.Cleanersweep.policy = `Cost_benefit
        && p.Cleanersweep.util_pct = 80
        && p.Cleanersweep.mpl = 1)
      s.Cleanersweep.points
  with
  | Some p ->
    Alcotest.(check bool)
      (Printf.sprintf "cost-benefit idle-cleans at MPL 1 (%d)"
         p.Cleanersweep.idle_cleans)
      true
      (p.Cleanersweep.idle_cleans > 0)
  | None -> Alcotest.fail "missing cost-benefit MPL-1 point at 80%"

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
      ("helpers", [ Alcotest.test_case "mean/stdev" `Quick test_stats_helpers ]);
    ]
