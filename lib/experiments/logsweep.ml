(* Parallel-WAL sweep: how many log streams does TPC-B want?  One WAL
   stream serializes every commit force behind one rendezvous and (with a
   log spindle) one disk arm.  With [log_streams = n] transactions are
   hash-assigned across n independent streams — n buffers, n force
   mutexes, n group-commit rendezvous, n spindles — at the price of
   vector-LSN dependency forces whenever a transaction touches a page
   last written under another stream.  This sweep measures where the
   extra arms beat the extra forces. *)

type point = {
  streams : int;
  mpl : int;
  run : Expcommon.tpcb_run;
  mean_commit_batch : float;
  forces : int;
  dep_checks : int;
  dep_forces : int;
  force_p99 : (string * float) list;
}

type t = point Expcommon.sweep

let default_streams = [ 1; 2; 4 ]
let default_mpls = [ 8; 16 ]

let force_p99s stats streams =
  let p99 = Expcommon.histo_p99 stats in
  if streams <= 1 then [ ("log", p99 "log.force") ]
  else
    List.init streams (fun i ->
        let tag = Printf.sprintf "s%d" i in
        (tag, p99 (Printf.sprintf "log.%s.force" tag)))

let run ?(tps_scale = 2) ?(txns = 1_500) ?(seed = 1)
    ?(streams = default_streams) ?(mpls = default_mpls)
    ?(setup = Machine.Lfs_user) () =
  let base = Expcommon.scaled_config tps_scale in
  (* Unlike the MPL and disk sweeps, the account relation is kept small
     enough to stay buffer-pool resident.  A disk-resident account
     working set makes TPC-B data-seek-bound and the log arm idles
     either way; parallel WAL is a remedy for the log-bound regime, so
     that is the regime the sweep measures. *)
  let scale = Expcommon.spread_scale ~accounts_per_tps:2_000 tps_scale in
  let points =
    List.concat_map
      (fun ns ->
        List.map
          (fun mpl ->
            (* Every point gets the full multi-spindle treatment — two
               striped data disks plus one log spindle per stream — so
               the sweep isolates the log-stream count: the single-stream
               point is exactly the disksweep "2+log" placement.  Record
               grain keeps committers overlapped (page grain would
               serialize them on the history tail page); the group-commit
               rendezvous is per stream, so its size stays fixed rather
               than scaling with MPL/streams. *)
            let fs =
              {
                base.Config.fs with
                Config.ndisks = 2;
                log_disk = true;
                log_streams = ns;
                lock_grain = `Record;
                group_commit_size = 8;
                group_commit_timeout_s = 0.02;
              }
            in
            let cfg = { base with Config.fs } in
            let run =
              Expcommon.run_tpcb_mpl ~config:cfg ~scale ~txns ~seed ~mpl setup
            in
            let stats = run.Expcommon.stats in
            {
              streams = ns;
              mpl;
              run;
              mean_commit_batch = Expcommon.histo_mean stats "log.commit_batch";
              forces = Stats.count stats "log.forces";
              dep_checks = Stats.count stats "log.dep_checks";
              dep_forces = Stats.count stats "log.dep_forces";
              force_p99 = force_p99s stats ns;
            })
          mpls)
      streams
  in
  { Expcommon.points; scale; txns; config = base; setup }

let point_json p =
  Json.Obj
    ([
       ("streams", Json.Int p.streams);
       ("mpl", Json.Int p.mpl);
       ("mean_commit_batch", Json.Float p.mean_commit_batch);
       ("forces", Json.Int p.forces);
       ("dep_checks", Json.Int p.dep_checks);
       ("dep_forces", Json.Int p.dep_forces);
       ( "force_p99",
         Json.List
           (List.map
              (fun (stream, s) ->
                Json.Obj [ ("stream", Json.Str stream); ("p99_s", Json.Float s) ])
              p.force_p99) );
     ]
    @ Expcommon.run_fields p.run)

let to_json t = Expcommon.sweep_json ~figure:"logsweep" point_json t

let num = Expcommon.num

(* Every point carries its per-stream force-latency p99, and parallel
   streams pay off at the contended end: 4 streams beat 1 at MPL 16. *)
let rules points =
  let force_p99 p =
    match Json.member "force_p99" p with
    | Some (Json.List []) -> [ "logsweep: force_p99 empty" ]
    | Some (Json.List l) ->
      List.filter_map
        (fun entry ->
          if Json.member "stream" entry = None || Json.member "p99_s" entry = None
          then Some "logsweep: force_p99 entry missing stream/p99_s"
          else None)
        l
    | _ -> []
  in
  let at streams =
    List.find_opt
      (fun p -> num "streams" p = float_of_int streams && num "mpl" p = 16.0)
      points
  in
  List.concat_map force_p99 points
  @
  match (at 1, at 4) with
  | Some one, Some four ->
    Option.to_list
      (Expcommon.tps_above "logsweep: TPS(4 streams)" four "TPS(1 stream)" one
         " at MPL 16")
  | _ -> []

let check =
  Expcommon.check_sweep ~name:"logsweep"
    ~fields:
      [ "streams"; "mpl"; "tps"; "mean_commit_batch"; "dep_checks";
        "dep_forces"; "force_p99" ]
    rules

let print (t : t) =
  Expcommon.pp_sweep_header "Parallel-WAL sweep" t;
  Printf.printf "%7s %4s %8s %10s %8s %10s %10s  %s\n" "streams" "mpl" "TPS"
    "batch" "forces" "dep-force" "dep-check" "force p99 (ms)";
  List.iter
    (fun p ->
      let p99s =
        String.concat "  "
          (List.map
             (fun (stream, s) -> Printf.sprintf "%s=%.1f" stream (s *. 1000.0))
             p.force_p99)
      in
      Printf.printf "%7d %4d %8.2f %10.2f %8d %10d %10d  %s\n" p.streams p.mpl
        p.run.Expcommon.result.Tpcb.tps p.mean_commit_batch p.forces
        p.dep_forces p.dep_checks p99s)
    t.points;
  (* Headline: what 4 streams buy over 1 at the contended end. *)
  let find streams mpl =
    List.find_opt (fun p -> p.streams = streams && p.mpl = mpl) t.points
  in
  match (find 1 16, find 4 16) with
  | Some one, Some four ->
    Printf.printf "\nshape: MPL 16, 4 streams vs 1: %+.1f%% TPS\n"
      (Expcommon.gain_pct four.run one.run)
  | _ -> ()
