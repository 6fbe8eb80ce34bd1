(* Adaptive-cleaner sweep: how do victim policy and hot/cold segregation
   hold up as the disk fills?  Cleaning cost is the one LFS overhead that
   grows with utilization — every reclaimed segment costs copying its
   live blocks first, and at 90 % full a greedy victim barely pays for
   itself.  Cost-benefit victim selection (age-weighted) plus routing
   relocated survivors to a separate cold log head is supposed to flatten
   that curve: cold data gets segregated once and stops being recopied,
   so the hot segments the cleaner actually needs stay empty.  The sweep
   prefills the disk with static (cold) fill files to a target
   utilization, then runs TPC-B (whose branch/teller pages are hot and
   whose history tail is append-only) and reports throughput, cleaner
   stall p99 and the per-victim write cost for every
   utilization x MPL x policy x segregation cell. *)

type arm = { policy : [ `Greedy | `Cost_benefit ]; segregate : bool }

type point = {
  util_pct : int;
  mpl : int;
  arm : arm;
  run : Expcommon.tpcb_run;
  stall_p99_s : float;
  write_cost : float;
  blocks_moved : int;
  blocks_reclaimed : int;
  segments_cleaned : int;
  cleans_observed : int;
  idle_cleans : int;
  backoffs : int;
  cold_segments : int;
}

type t = point Expcommon.sweep

let default_utils = [ 50; 70; 80; 90 ]
let default_mpls = [ 1; 8 ]

let default_arms =
  [
    { policy = `Greedy; segregate = false };
    { policy = `Greedy; segregate = true };
    { policy = `Cost_benefit; segregate = false };
    { policy = `Cost_benefit; segregate = true };
  ]

let policy_key = Config.name_of Config.cleaner_policies

let arm_key a =
  Printf.sprintf "%s%s" (policy_key a.policy)
    (if a.segregate then "+seg" else "")

(* Fill the disk with static files until only [target_free] segments
   remain.  The fill is written once and never touched again — it is the
   cold mass whose treatment separates the policies.  The floor keeps the
   prefill out of the cleaner's low-water territory, so the measured run
   starts clean-free at every utilization. *)
let prefill ~util_pct m =
  match Machine.lfs m with
  | None -> ()
  | Some fs ->
    let vfs = Machine.vfs m in
    let cfg = (Lfs.config fs).Config.fs in
    let nseg = Lfs.nsegments fs in
    let target_free =
      max (nseg * (100 - util_pct) / 100) (cfg.Config.cleaner_low_segments + 4)
    in
    let bs = vfs.Vfs.block_size in
    let fill_blocks = max 1 (cfg.Config.segment_blocks - 1) in
    vfs.Vfs.mkdir "/fill";
    let block = Bytes.make bs 'c' in
    let i = ref 0 in
    while Lfs.free_segments fs > target_free do
      let fd = vfs.Vfs.create (Printf.sprintf "/fill/f%d" !i) in
      for b = 0 to fill_blocks - 1 do
        vfs.Vfs.write fd ~off:(b * bs) block
      done;
      vfs.Vfs.fsync fd;
      incr i
    done;
    vfs.Vfs.sync ()

let run ?(tps_scale = 2) ?(txns = 1_000) ?(seed = 1) ?(utils = default_utils)
    ?(mpls = default_mpls) ?(arms = default_arms) () =
  let base = Expcommon.scaled_config tps_scale in
  (* A small account spread as in the log sweep: the cleaner study wants
     a log-bound workload with a compact hot set, not a data-seek-bound
     one. *)
  let scale = Expcommon.spread_scale ~accounts_per_tps:2_000 tps_scale in
  let points =
    List.concat_map
      (fun arm ->
        List.concat_map
          (fun util_pct ->
            List.map
              (fun mpl ->
                let fs =
                  {
                    base.Config.fs with
                    Config.cleaner_policy = arm.policy;
                    cleaner_segregate = arm.segregate;
                    lock_grain = `Record;
                    group_commit_size = 8;
                    group_commit_timeout_s = 0.02;
                  }
                in
                let cfg = { base with Config.fs } in
                let prepare = prefill ~util_pct in
                let run =
                  Expcommon.run_tpcb_mpl ~prepare ~config:cfg ~scale ~txns ~seed
                    ~mpl Machine.Lfs_kernel
                in
                let stats = run.Expcommon.stats in
                let moved = Stats.count stats "cleaner.blocks_moved" in
                let reclaimed = Stats.count stats "cleaner.blocks_reclaimed" in
                {
                  util_pct;
                  mpl;
                  arm;
                  run;
                  stall_p99_s = Expcommon.histo_p99 stats "cleaner.stall";
                  write_cost =
                    (if reclaimed = 0 then 0.0
                     else float_of_int moved /. float_of_int reclaimed);
                  blocks_moved = moved;
                  blocks_reclaimed = reclaimed;
                  segments_cleaned = Stats.count stats "cleaner.segments";
                  cleans_observed = Expcommon.histo_count stats "cleaner.clean";
                  idle_cleans = Stats.count stats "cleaner.idle_cleans";
                  backoffs = Stats.count stats "cleaner.backoffs";
                  cold_segments = Stats.count stats "cleaner.cold_segments";
                })
              mpls)
          utils)
      arms
  in
  {
    Expcommon.points;
    scale;
    txns;
    config = base;
    setup = Machine.Lfs_kernel;
  }

let point_json p =
  Json.Obj
    ([
       ("util_pct", Json.Int p.util_pct);
       ("mpl", Json.Int p.mpl);
       ("policy", Json.Str (policy_key p.arm.policy));
       ("segregate", Json.Bool p.arm.segregate);
       ("arm", Json.Str (arm_key p.arm));
       ("stall_p99_s", Json.Float p.stall_p99_s);
       ("write_cost", Json.Float p.write_cost);
       ("blocks_moved", Json.Int p.blocks_moved);
       ("blocks_reclaimed", Json.Int p.blocks_reclaimed);
       ("segments_cleaned", Json.Int p.segments_cleaned);
       ("cleans_observed", Json.Int p.cleans_observed);
       ("idle_cleans", Json.Int p.idle_cleans);
       ("backoffs", Json.Int p.backoffs);
       ("cold_segments", Json.Int p.cold_segments);
     ]
    @ Expcommon.run_fields p.run)

(* Every sweep runs the kernel-embedded setup, so the artifact does not
   name it. *)
let to_json t =
  Expcommon.sweep_json ~figure:"cleanersweep" ~with_setup:false point_json t

let num = Expcommon.num

(* Cleaner accounting is consistent — dead-segment reclaims are still
   observed, so the clean histogram and the segment counter move in
   lock step — and the headline claim holds: cost-benefit with
   segregation keeps more of its emptiest-disk TPS at the fullest disk
   than greedy without, at the contended end of the sweep (MPL 8). *)
let rules points =
  let observed p =
    let cleaned = num "segments_cleaned" p in
    let observed = num "cleans_observed" p in
    if cleaned <> observed then
      Some
        (Printf.sprintf
           "cleanersweep: segments_cleaned (%g) != cleans_observed (%g) at \
            util %g%% mpl %g (%s)"
           cleaned observed (num "util_pct" p) (num "mpl" p)
           (match Json.member "arm" p with Some (Json.Str a) -> a | _ -> "?"))
    else None
  in
  let utils = List.sort_uniq compare (List.map (num "util_pct") points) in
  let retention ~policy ~segregate ~lo ~hi =
    let at util =
      List.find_opt
        (fun p ->
          Json.member "policy" p = Some (Json.Str policy)
          && Json.member "segregate" p = Some (Json.Bool segregate)
          && num "util_pct" p = util
          && num "mpl" p = 8.0)
        points
    in
    match (at lo, at hi) with
    | Some plo, Some phi when num "tps" plo > 0.0 ->
      Some (num "tps" phi /. num "tps" plo)
    | _ -> None
  in
  List.filter_map observed points
  @
  match (utils, List.rev utils) with
  | lo :: _, hi :: _ when lo <> hi -> (
    match
      ( retention ~policy:"cost-benefit" ~segregate:true ~lo ~hi,
        retention ~policy:"greedy" ~segregate:false ~lo ~hi )
    with
    | Some cb, Some greedy when cb <= greedy ->
      [
        Printf.sprintf
          "cleanersweep: cost-benefit+seg keeps %.1f%% of its %d%%-full TPS at \
           %d%% full (MPL 8) — not above greedy's %.1f%%"
          (100.0 *. cb) (int_of_float lo) (int_of_float hi) (100.0 *. greedy);
      ]
    | _ -> [])
  | _ -> []

let check =
  Expcommon.check_sweep ~name:"cleanersweep"
    ~fields:
      [ "util_pct"; "mpl"; "policy"; "segregate"; "tps"; "stall_p99_s";
        "write_cost"; "segments_cleaned"; "cleans_observed" ]
    rules

let print (t : t) =
  Expcommon.pp_header
    "Cleaner sweep: utilization x MPL x victim policy x segregation";
  Printf.printf "%-18s %5s %4s %8s %10s %10s %8s %8s %8s\n" "arm" "util" "mpl"
    "tps" "stall_p99" "write_cost" "cleaned" "idle" "backoff";
  List.iter
    (fun p ->
      Printf.printf "%-18s %4d%% %4d %8.2f %9.3fs %10.2f %8d %8d %8d\n"
        (arm_key p.arm) p.util_pct p.mpl p.run.Expcommon.result.Tpcb.tps
        p.stall_p99_s p.write_cost p.segments_cleaned p.idle_cleans p.backoffs)
    t.points;
  (* The curve the sweep exists to draw: throughput retained from the
     emptiest to the fullest disk, per arm, at the highest MPL. *)
  let mpl_hi = List.fold_left max 1 (List.map (fun p -> p.mpl) t.points) in
  let utils = List.sort_uniq compare (List.map (fun p -> p.util_pct) t.points) in
  match (utils, List.rev utils) with
  | lo :: _, hi :: _ when lo <> hi ->
    List.iter
      (fun arm ->
        let at u =
          List.find_opt
            (fun p -> p.arm = arm && p.util_pct = u && p.mpl = mpl_hi)
            t.points
        in
        match (at lo, at hi) with
        | Some plo, Some phi ->
          let tlo = plo.run.Expcommon.result.Tpcb.tps
          and thi = phi.run.Expcommon.result.Tpcb.tps in
          if tlo > 0.0 then
            Printf.printf
              "%-18s keeps %5.1f%% of its %d%%-full TPS at %d%% full (MPL %d)\n"
              (arm_key arm) (100.0 *. thi /. tlo) lo hi mpl_hi
        | _ -> ())
      (List.sort_uniq compare (List.map (fun p -> p.arm) t.points))
  | _ -> ()
