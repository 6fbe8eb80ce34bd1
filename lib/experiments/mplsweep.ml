(* Multiprogramming-level sweep: the experiment the paper could not run.
   Section 4.4 concedes that at MPL 1 "group commit provides no benefit";
   with the discrete-event scheduler we can sweep MPL x group-commit
   configuration and watch the rendezvous start doing real work — batch
   sizes above 1, fewer log forces, and throughput that rises with MPL
   instead of paying the full timeout per transaction. *)

type point = {
  mpl : int;
  group_size : int;
  group_timeout_s : float;
  lock_grain : [ `Page | `Record ];
  run : Expcommon.tpcb_run;
  mean_batch : float;
  group_flushes : int;
  group_commit_wait_s : float;
  lock_wait_p99_s : float;
}

type t = point Expcommon.sweep

let default_mpls = [ 1; 2; 4; 8; 16 ]
let default_grains = [ `Page; `Record ]
(* Timeouts are sized against the per-transaction service time (tens of
   milliseconds on the simulated disk): a timeout well below it never
   sees a second committer arrive. *)
let default_groups = [ (1, 0.0); (4, 0.05); (8, 0.1) ]

let grain_key = Config.name_of Config.lock_grains

(* The commit-path stats of a setup: commit batch, flush count, group
   commit wait and lock wait — the embedded manager's or the WAL's. *)
let stat_keys = function
  | Machine.Lfs_kernel ->
    ("ktxn.commit_batch", "ktxn.group_flushes", "ktxn.group_commit_wait",
     "ktxn.lock_wait")
  | Machine.Lfs_user | Machine.Ffs_user ->
    ("log.commit_batch", "log.forces", "log.group_commit_wait", "txn.lock_wait")

(* Default setup is the user-level system: that is where record-grain
   locking changes transaction behaviour end to end (the embedded kernel
   manager keeps page-exclusive writes — its abort works by invalidating
   whole cached frames — and only relaxes read locks). *)
let run ?config ?(tps_scale = 2) ?(txns = 2_000) ?(seed = 1)
    ?(mpls = default_mpls) ?(groups = default_groups)
    ?(grains = default_grains) ?(setup = Machine.Lfs_user) () =
  let base = Expcommon.scaled_config ?config tps_scale in
  (* The account relation keeps its official size. *)
  let scale = Expcommon.spread_scale ~accounts_per_tps:100_000 tps_scale in
  let batch_key, flush_key, wait_key, lock_wait_key = stat_keys setup in
  let points =
    List.concat_map
      (fun grain ->
        List.concat_map
          (fun (gsize, gtimeout) ->
            let cfg =
              {
                base with
                Config.fs =
                  {
                    base.Config.fs with
                    Config.lock_grain = grain;
                    group_commit_size = gsize;
                    group_commit_timeout_s = gtimeout;
                  };
              }
            in
            List.map
              (fun mpl ->
                let run =
                  Expcommon.run_tpcb_mpl ~config:cfg ~scale ~txns ~seed ~mpl
                    setup
                in
                let stats = run.Expcommon.stats in
                {
                  mpl;
                  group_size = gsize;
                  group_timeout_s = gtimeout;
                  lock_grain = grain;
                  run;
                  mean_batch = Expcommon.histo_mean ~empty:1.0 stats batch_key;
                  group_flushes = Stats.count stats flush_key;
                  group_commit_wait_s = Stats.time stats wait_key;
                  lock_wait_p99_s = Expcommon.histo_p99 stats lock_wait_key;
                })
              mpls)
          groups)
      grains
  in
  { Expcommon.points; scale; txns; config = base; setup }

let point_json p =
  Json.Obj
    ([
       ("mpl", Json.Int p.mpl);
       ("group_size", Json.Int p.group_size);
       ("group_timeout_s", Json.Float p.group_timeout_s);
       ("lock_grain", Json.Str (grain_key p.lock_grain));
       ("mean_commit_batch", Json.Float p.mean_batch);
       ("group_flushes", Json.Int p.group_flushes);
       ("group_commit_wait_s", Json.Float p.group_commit_wait_s);
       ("lock_wait_p99_s", Json.Float p.lock_wait_p99_s);
     ]
    @ Expcommon.run_fields p.run)

let to_json t = Expcommon.sweep_json ~figure:"mplsweep" point_json t

let num = Expcommon.num

(* Group commit must demonstrably batch once MPL and group size allow
   it; MPL 8 must beat MPL 1 for a grouped configuration; and record
   grain must beat page grain at MPL 16, the contention end of the
   sweep — the point of hierarchical locking. Pairs are matched on group
   size and lock grain (legacy artifacts carry no grain and still
   match). *)
let rules points =
  let pairs f = List.concat_map (fun a -> List.filter_map (f a) points) points in
  let same key a b = Json.member key a = Json.member key b in
  let grain_at g p =
    Json.member "lock_grain" p = Some (Json.Str g) && num "mpl" p = 16.0
  in
  (if
     List.exists (fun p -> num "mpl" p > 1.0 && num "group_size" p > 1.0) points
     && List.for_all (fun p -> num "mean_commit_batch" p <= 1.0) points
   then
     [
       "mplsweep: no point achieved a mean commit batch > 1 despite MPL > 1 \
        and group size > 1";
     ]
   else [])
  @ pairs (fun p8 p1 ->
        if
          num "mpl" p8 = 8.0 && num "group_size" p8 > 1.0 && num "mpl" p1 = 1.0
          && same "group_size" p1 p8 && same "lock_grain" p1 p8
        then
          Expcommon.tps_above "mplsweep: TPS at MPL 8" p8 "MPL 1" p1
            (Printf.sprintf " for group size %g" (num "group_size" p8))
        else None)
  @ pairs (fun pr pp ->
        if grain_at "record" pr && grain_at "page" pp && same "group_size" pp pr
        then
          Expcommon.tps_above "mplsweep: record-grain TPS at MPL 16" pr
            "page grain" pp
            (Printf.sprintf " for group size %g" (num "group_size" pr))
        else None)

let check =
  Expcommon.check_sweep ~name:"mplsweep"
    ~fields:
      [ "mpl"; "group_size"; "group_timeout_s"; "lock_grain"; "tps";
        "mean_commit_batch"; "group_flushes"; "lock_wait_p99_s" ]
    rules

let print (t : t) =
  Expcommon.pp_sweep_header "MPL sweep" t;
  Printf.printf "%6s %4s %6s %10s %8s %10s %8s %8s %8s %9s\n" "grain" "mpl"
    "gsize" "timeout" "TPS" "mean" "flushes" "blocks" "dlocks" "gc wait";
  Printf.printf "%6s %4s %6s %10s %8s %10s %8s %8s %8s %9s\n" "" "" "" "(ms)"
    "" "batch" "" "" "" "(s)";
  List.iter
    (fun p ->
      Printf.printf "%6s %4d %6d %10.1f %8.2f %10.2f %8d %8d %8d %9.2f\n"
        (grain_key p.lock_grain) p.mpl p.group_size
        (1000.0 *. p.group_timeout_s)
        p.run.Expcommon.result.Tpcb.tps p.mean_batch p.group_flushes
        p.run.Expcommon.lock_blocks p.run.Expcommon.deadlocks p.group_commit_wait_s)
    t.points;
  (* Headline: does group commit do real work once MPL > 1, and does
     record granularity beat page granularity under contention? *)
  let find grain mpl gsize =
    List.find_opt
      (fun p -> p.lock_grain = grain && p.mpl = mpl && p.group_size = gsize)
      t.points
  in
  let first_grain =
    match t.points with [] -> `Page | p :: _ -> p.lock_grain
  in
  (match (find first_grain 1 8, find first_grain 8 8) with
  | Some p1, Some p8 ->
    Printf.printf
      "\nshape: gsize 8, MPL 8 vs MPL 1: %+.1f%% TPS (batch %.2f vs %.2f)\n"
      (Expcommon.gain_pct p8.run p1.run)
      p8.mean_batch p1.mean_batch
  | _ -> ());
  match (find `Page 16 8, find `Record 16 8) with
  | Some pp, Some pr ->
    Printf.printf
      "shape: gsize 8, MPL 16, record vs page grain: %+.1f%% TPS\n"
      (Expcommon.gain_pct pr.run pp.run)
  | _ -> ()
