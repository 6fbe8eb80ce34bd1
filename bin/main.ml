(* txnlfs — command-line driver for the reproduction: run any paper
   experiment or ablation individually, run TPC-B ad hoc on any of the
   three configurations, or poke at a simulated file system. *)

open Cmdliner

let scale_arg =
  let doc = "TPC-B scale rating in TPS (the paper uses 10). All machine \
             parameters are scaled by scale/10 to preserve the paper's \
             cache/database/disk ratios." in
  Arg.(value & opt int 4 & info [ "scale" ] ~docv:"N" ~doc)

let txns_arg default =
  let doc = "Number of transactions to execute." in
  Arg.(value & opt int default & info [ "txns" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let seeds_arg =
  let doc = "Number of seeds (independent runs averaged)." in
  Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Also write the machine-readable $(b,BENCH_<name>.json) artifact into \
     $(b,\\$BENCH_DIR) (or the current directory)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let ndisks_arg =
  let doc =
    "Number of data spindles. Above 1, LFS stripes whole segments \
     round-robin across the spindles; 1 reproduces the paper's single-disk \
     configuration bit-for-bit."
  in
  Arg.(value & opt int 1 & info [ "ndisks" ] ~docv:"N" ~doc)

let log_disk_arg =
  let doc =
    "Add a dedicated log spindle: the write-ahead log (user setups) or the \
     LFS checkpoint region (kernel setup) stops competing with data-disk \
     traffic."
  in
  Arg.(value & flag & info [ "log-disk" ] ~doc)

let log_streams_arg =
  let doc =
    "Number of parallel write-ahead log streams (user setups). Each \
     transaction is hash-assigned to one stream; commit records carry a \
     vector LSN so recovery can merge the streams in dependency order. \
     With $(b,--log-disk), every stream gets its own spindle."
  in
  Arg.(value & opt int 1 & info [ "log-streams" ] ~docv:"N" ~doc)

let with_disks ~ndisks ~log_disk ?(log_streams = 1) (c : Config.t) =
  { c with Config.fs = { c.Config.fs with Config.ndisks; log_disk; log_streams } }

let lock_grain_arg =
  let doc =
    "Two-phase locking granularity: $(b,page) (classic page locks) or \
     $(b,record) (hierarchical record locks with intention modes; see the \
     lock manager docs)."
  in
  Arg.(value & opt string "page" & info [ "lock-grain" ] ~docv:"G" ~doc)

let parse_grain s =
  try Mplsweep.grain_of_string s
  with Invalid_argument _ ->
    prerr_endline ("unknown lock grain " ^ s ^ " (page, record)");
    exit 2

let with_grain grain (c : Config.t) =
  { c with Config.fs = { c.Config.fs with Config.lock_grain = grain } }

let emit_bench ~name ~config json =
  let path = Expcommon.write_bench ~name ~config json in
  Printf.printf "wrote %s\n" path

(* fig4 *)
let fig4_cmd =
  let run scale txns nseeds json =
    let f =
      Fig4.run ~tps_scale:scale ~txns ~seeds:(List.init nseeds (fun i -> i + 1)) ()
    in
    Fig4.print f;
    if json then emit_bench ~name:"fig4" ~config:f.Fig4.config (Fig4.to_json f)
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Figure 4: TPC-B throughput of the three configurations")
    Term.(const run $ scale_arg $ txns_arg 20_000 $ seeds_arg $ json_arg)

let fig5_cmd =
  let run scale json =
    let f = Fig5.run ~tps_scale:scale () in
    Fig5.print f;
    if json then emit_bench ~name:"fig5" ~config:f.Fig5.config (Fig5.to_json f)
  in
  Cmd.v
    (Cmd.info "fig5"
       ~doc:"Figure 5: non-transaction performance on normal vs transaction kernel")
    Term.(const run $ scale_arg $ json_arg)

let fig6_cmd =
  let run scale txns seed json =
    let f = Fig6.run ~tps_scale:scale ~txns ~seed () in
    Fig6.print f;
    if json then emit_bench ~name:"fig6" ~config:f.Fig6.config (Fig6.to_json f)
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Figure 6: key-order scan after random updates")
    Term.(const run $ scale_arg $ txns_arg 20_000 $ seed_arg $ json_arg)

let fig7_cmd =
  let run scale txns nseeds json =
    let seeds = List.init nseeds (fun i -> i + 1) in
    let fig4 = Fig4.run ~tps_scale:scale ~txns ~seeds () in
    let fig6 = Fig6.run ~tps_scale:scale ~txns () in
    let f = Fig7.of_measurements ~fig4 ~fig6 in
    Fig7.print f;
    if json then
      (* Figure 7 is derived; ship the source measurements (and their
         metrics) alongside so the artifact stands on its own. *)
      emit_bench ~name:"fig7" ~config:fig4.Fig4.config
        (Json.Obj
           [
             ("fig7", Fig7.to_json f);
             ( "sources",
               Json.Obj
                 [ ("fig4", Fig4.to_json fig4); ("fig6", Fig6.to_json fig6) ] );
           ])
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Figure 7: transaction/scan trade-off crossover")
    Term.(const run $ scale_arg $ txns_arg 20_000 $ seeds_arg $ json_arg)

let ablation_cmd =
  let which =
    let doc = "Which ablation: tas, cleaner, policy, group-commit, coalesce, mpl, or all." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"NAME" ~doc)
  in
  let run name scale txns =
    let all =
      [
        ("tas", fun () -> Ablation.test_and_set ~tps_scale:scale ~txns ());
        ("cleaner", fun () -> Ablation.cleaner_placement ~tps_scale:scale ~txns ());
        ("policy", fun () -> Ablation.cleaning_policy ~tps_scale:scale ~txns ());
        ("group-commit", fun () -> Ablation.group_commit ~tps_scale:scale ~txns ());
        ("mpl", fun () -> Ablation.multiprogramming ~tps_scale:scale ~txns ());
      ]
    in
    match name with
    | "all" ->
      List.iter (fun (_, f) -> Ablation.print (f ())) all;
      Ablation.print_coalescing (Ablation.coalescing ~tps_scale:scale ~txns ())
    | "coalesce" ->
      Ablation.print_coalescing (Ablation.coalescing ~tps_scale:scale ~txns ())
    | _ -> (
      match List.assoc_opt name all with
      | Some f -> Ablation.print (f ())
      | None -> prerr_endline ("unknown ablation: " ^ name))
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Design-choice ablations (test-and-set, cleaner, ...)")
    Term.(const run $ which $ scale_arg $ txns_arg 10_000)

(* Ad hoc TPC-B *)
let setup_arg =
  let doc = "Configuration: readopt-user, lfs-user, or lfs-kernel." in
  Arg.(value & opt string "lfs-kernel" & info [ "setup" ] ~docv:"SETUP" ~doc)

let parse_setup = function
  | "readopt-user" -> Expcommon.Readopt_user
  | "lfs-user" -> Expcommon.Lfs_user
  | "lfs-kernel" -> Expcommon.Lfs_kernel
  | s -> failwith ("unknown setup: " ^ s)

let mpl_arg =
  let doc =
    "Multiprogramming level: number of concurrent simulated transaction \
     processes on the discrete-event scheduler. 1 is the paper's \
     single-user configuration."
  in
  Arg.(value & opt int 1 & info [ "mpl" ] ~docv:"N" ~doc)

let tpcb_cmd =
  let run setup scale txns seed mpl ndisks log_disk log_streams grain =
    let setup = parse_setup setup in
    let config =
      with_grain (parse_grain grain)
        (with_disks ~ndisks ~log_disk ~log_streams
           (Config.scaled ~factor:(float_of_int scale /. 10.0) Config.default))
    in
    let r, multi =
      Expcommon.run_tpcb_mpl ~config ~scale:(Tpcb.scale_for_tps scale) ~txns
        ~seed ~mpl setup
    in
    if mpl > 1 then
      Printf.printf "mpl %d: %d lock block(s), %d deadlock(s), %d restart(s)\n"
        mpl multi.Tpcb.conflicts multi.Tpcb.deadlocks multi.Tpcb.restarts;
    Printf.printf
      "%s: %d txns in %.1f simulated seconds = %.2f TPS (max latency %.3fs, \
       cleaner stall %.1fs)\n"
      (Expcommon.setup_label setup)
      r.Expcommon.result.Tpcb.txns r.Expcommon.result.Tpcb.elapsed_s
      r.Expcommon.result.Tpcb.tps r.Expcommon.result.Tpcb.max_latency_s
      r.Expcommon.cleaner_stall_s
  in
  Cmd.v
    (Cmd.info "tpcb" ~doc:"Run TPC-B on one configuration and report TPS")
    Term.(
      const run $ setup_arg $ scale_arg $ txns_arg 10_000 $ seed_arg $ mpl_arg
      $ ndisks_arg $ log_disk_arg $ log_streams_arg $ lock_grain_arg)

(* MPL x group-commit sweep on the discrete-event scheduler. *)
let mplsweep_cmd =
  let mpls_arg =
    let doc = "Comma-separated multiprogramming levels to sweep." in
    Arg.(value & opt string "1,2,4,8,16" & info [ "mpls" ] ~docv:"LIST" ~doc)
  in
  let groups_arg =
    let doc =
      "Comma-separated group-commit configurations as size:timeout_ms pairs \
       (size 1 / timeout 0 forces every commit)."
    in
    Arg.(value & opt string "1:0,4:50,8:100" & info [ "groups" ] ~docv:"LIST" ~doc)
  in
  let setup_arg =
    (* lfs-user, not the shared default: record granularity changes
       behaviour end to end only in the user-level system. *)
    let doc = "Configuration: readopt-user, lfs-user, or lfs-kernel." in
    Arg.(value & opt string "lfs-user" & info [ "setup" ] ~docv:"SETUP" ~doc)
  in
  let grains_arg =
    let doc = "Comma-separated lock granularities to sweep (page, record)." in
    Arg.(value & opt string "page,record" & info [ "grains" ] ~docv:"LIST" ~doc)
  in
  let run setup scale txns seed mpls groups grains json ndisks log_disk =
    let setup = parse_setup setup in
    let parse_list name conv s =
      List.map
        (fun item ->
          try conv (String.trim item)
          with _ ->
            prerr_endline ("mplsweep: bad " ^ name ^ " element: " ^ item);
            exit 2)
        (String.split_on_char ',' s)
    in
    let mpls = parse_list "mpls" int_of_string mpls in
    let grains = parse_list "grains" Mplsweep.grain_of_string grains in
    let groups =
      parse_list "groups"
        (fun item ->
          match String.split_on_char ':' item with
          | [ size; ms ] ->
            (int_of_string size, float_of_string ms /. 1000.0)
          | _ -> failwith "expected size:timeout_ms")
        groups
    in
    let config =
      with_disks ~ndisks ~log_disk
        (Config.scaled ~factor:(float_of_int scale /. 10.0) Config.default)
    in
    let s =
      Mplsweep.run ~config ~tps_scale:scale ~txns ~seed ~mpls ~groups ~grains
        ~setup ()
    in
    Mplsweep.print s;
    if json then
      emit_bench ~name:"mplsweep" ~config:s.Mplsweep.config
        (Mplsweep.to_json s)
  in
  Cmd.v
    (Cmd.info "mplsweep"
       ~doc:
         "Sweep multiprogramming level x group-commit configuration x lock \
          granularity on the discrete-event scheduler and report TPS, commit \
          batch sizes, lock blocks and deadlocks")
    Term.(
      const run $ setup_arg $ scale_arg $ txns_arg 2_000 $ seed_arg $ mpls_arg
      $ groups_arg $ grains_arg $ json_arg $ ndisks_arg $ log_disk_arg)

(* Disk-placement sweep: dedicated log spindle and striped segments. *)
let disksweep_cmd =
  let mpls_arg =
    let doc = "Comma-separated multiprogramming levels to sweep." in
    Arg.(value & opt string "1,8" & info [ "mpls" ] ~docv:"LIST" ~doc)
  in
  (* Default to lfs-user: the WAL is where a dedicated log spindle pays
     off. In lfs-kernel the LFS log IS the data, so the spindle only
     carries checkpoints. *)
  let setup_arg =
    let doc = "Configuration: readopt-user, lfs-user, or lfs-kernel." in
    Arg.(value & opt string "lfs-user" & info [ "setup" ] ~docv:"SETUP" ~doc)
  in
  let run setup scale txns seed mpls json =
    let setup = parse_setup setup in
    let mpls =
      List.map
        (fun item ->
          try int_of_string (String.trim item)
          with _ ->
            prerr_endline ("disksweep: bad mpl element: " ^ item);
            exit 2)
        (String.split_on_char ',' mpls)
    in
    let s = Disksweep.run ~tps_scale:scale ~txns ~seed ~mpls ~setup () in
    Disksweep.print s;
    if json then
      emit_bench ~name:"disksweep" ~config:s.Disksweep.config
        (Disksweep.to_json s)
  in
  Cmd.v
    (Cmd.info "disksweep"
       ~doc:
         "Sweep disk placement — one shared spindle, dedicated log spindle, \
          2- and 4-wide segment stripes — under TPC-B and report TPS and \
          per-disk utilization")
    Term.(
      const run $ setup_arg $ scale_arg $ txns_arg 1_000 $ seed_arg $ mpls_arg
      $ json_arg)

(* Parallel-WAL sweep: log-stream count x MPL. *)
let logsweep_cmd =
  let streams_arg =
    let doc = "Comma-separated log-stream counts to sweep." in
    Arg.(value & opt string "1,2,4" & info [ "streams" ] ~docv:"LIST" ~doc)
  in
  let mpls_arg =
    let doc = "Comma-separated multiprogramming levels to sweep." in
    Arg.(value & opt string "8,16" & info [ "mpls" ] ~docv:"LIST" ~doc)
  in
  let setup_arg =
    (* lfs-user: the WAL (and so the stream count) only exists in the
       user-level systems. *)
    let doc = "Configuration: readopt-user or lfs-user." in
    Arg.(value & opt string "lfs-user" & info [ "setup" ] ~docv:"SETUP" ~doc)
  in
  let run setup scale txns seed streams mpls json =
    let setup = parse_setup setup in
    let parse_list name s =
      List.map
        (fun item ->
          try int_of_string (String.trim item)
          with _ ->
            prerr_endline ("logsweep: bad " ^ name ^ " element: " ^ item);
            exit 2)
        (String.split_on_char ',' s)
    in
    let streams = parse_list "streams" streams in
    let mpls = parse_list "mpls" mpls in
    let s = Logsweep.run ~tps_scale:scale ~txns ~seed ~streams ~mpls ~setup () in
    Logsweep.print s;
    if json then
      emit_bench ~name:"logsweep" ~config:s.Logsweep.config (Logsweep.to_json s)
  in
  Cmd.v
    (Cmd.info "logsweep"
       ~doc:
         "Sweep the parallel-WAL stream count under TPC-B (one log spindle \
          per stream) and report TPS, commit batching, cross-stream \
          dependency forces and per-stream force latency")
    Term.(
      const run $ setup_arg $ scale_arg $ txns_arg 1_500 $ seed_arg
      $ streams_arg $ mpls_arg $ json_arg)

let cleanersweep_cmd =
  let utils_arg =
    let doc = "Comma-separated disk utilizations (percent) to sweep." in
    Arg.(value & opt string "50,70,80,90" & info [ "utils" ] ~docv:"LIST" ~doc)
  in
  let mpls_arg =
    let doc = "Comma-separated multiprogramming levels to sweep." in
    Arg.(value & opt string "1,8" & info [ "mpls" ] ~docv:"LIST" ~doc)
  in
  let arms_arg =
    let doc =
      "Comma-separated cleaner arms: any of greedy, greedy+seg, \
       cost-benefit, cost-benefit+seg."
    in
    Arg.(
      value
      & opt string "greedy,greedy+seg,cost-benefit,cost-benefit+seg"
      & info [ "arms" ] ~docv:"LIST" ~doc)
  in
  let run scale txns seed utils mpls arms json =
    let parse_ints name s =
      List.map
        (fun item ->
          try int_of_string (String.trim item)
          with _ ->
            prerr_endline ("cleanersweep: bad " ^ name ^ " element: " ^ item);
            exit 2)
        (String.split_on_char ',' s)
    in
    let utils = parse_ints "utils" utils in
    let mpls = parse_ints "mpls" mpls in
    let arms =
      List.map
        (fun item ->
          match String.trim item with
          | "greedy" -> { Cleanersweep.policy = `Greedy; segregate = false }
          | "greedy+seg" -> { Cleanersweep.policy = `Greedy; segregate = true }
          | "cost-benefit" ->
            { Cleanersweep.policy = `Cost_benefit; segregate = false }
          | "cost-benefit+seg" ->
            { Cleanersweep.policy = `Cost_benefit; segregate = true }
          | other ->
            prerr_endline ("cleanersweep: bad arms element: " ^ other);
            exit 2)
        (String.split_on_char ',' arms)
    in
    let s = Cleanersweep.run ~tps_scale:scale ~txns ~seed ~utils ~mpls ~arms () in
    Cleanersweep.print s;
    if json then
      emit_bench ~name:"cleanersweep" ~config:s.Cleanersweep.config
        (Cleanersweep.to_json s)
  in
  Cmd.v
    (Cmd.info "cleanersweep"
       ~doc:
         "Sweep disk utilization x MPL x cleaner victim policy x hot/cold \
          segregation under TPC-B (kernel-embedded setup) and report TPS, \
          cleaner stall p99 and per-victim write cost")
    Term.(
      const run $ scale_arg $ txns_arg 1_000 $ seed_arg $ utils_arg $ mpls_arg
      $ arms_arg $ json_arg)

(* Event tracing: run TPC-B with the trace ring attached and dump it. *)
let trace_cmd =
  let out_arg =
    let doc = "Write the JSONL trace to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let cap_arg =
    let doc =
      "Trace ring capacity; once full, the oldest events are dropped (the \
       summary line reports how many)."
    in
    Arg.(value & opt int 65_536 & info [ "cap" ] ~docv:"N" ~doc)
  in
  let run setup scale txns seed out cap mpl ndisks log_disk grain =
    let setup = parse_setup setup in
    let config =
      with_grain (parse_grain grain)
        (with_disks ~ndisks ~log_disk
           (Config.scaled ~factor:(float_of_int scale /. 10.0) Config.default))
    in
    let r, _ =
      Expcommon.run_tpcb_mpl ~trace:cap ~config
        ~scale:(Tpcb.scale_for_tps scale) ~txns ~seed ~mpl setup
    in
    match Stats.trace r.Expcommon.stats with
    | None -> prerr_endline "trace: no events captured"
    | Some tr ->
      (match out with
      | None -> Trace.output stdout tr
      | Some file ->
        let oc = open_out file in
        Trace.output oc tr;
        close_out oc);
      Printf.eprintf "trace: %d event(s), %d dropped (ring cap %d)\n"
        (Trace.length tr) (Trace.dropped tr) cap
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run TPC-B with event tracing enabled and emit the structured trace \
          as JSONL (one event per line, keyed by simulated time); --mpl \
          captures multi-process interleavings")
    Term.(
      const run $ setup_arg $ scale_arg $ txns_arg 1_000 $ seed_arg $ out_arg
      $ cap_arg $ mpl_arg $ ndisks_arg $ log_disk_arg $ lock_grain_arg)

(* Schema check for BENCH_*.json artifacts (used by CI to reject empty or
   malformed benchmark output). *)
let bench_check_cmd =
  let files_arg =
    let doc = "BENCH_*.json files to validate." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let rec collect key j acc =
    match j with
    | Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let acc = if k = key then v :: acc else acc in
          collect key v acc)
        acc kvs
    | Json.List l -> List.fold_left (fun acc v -> collect key v acc) acc l
    | _ -> acc
  in
  let check file =
    let contents =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
    (match Json.of_string_opt contents with
    | None -> err "not valid JSON"
    | Some doc ->
      (match Json.member "meta" doc with
      | None -> err "missing meta object"
      | Some meta ->
        (match Json.member "name" meta with
        | Some (Json.Str n) when n <> "" -> ()
        | _ -> err "meta.name missing or empty");
        (match Json.member "config" meta with
        | Some (Json.Obj (_ :: _)) -> ()
        | _ -> err "meta.config missing or empty"));
      if Json.member "data" doc = None then err "missing data object";
      let counters =
        List.concat_map
          (function Json.Obj kvs -> kvs | _ -> [])
          (collect "counters" doc [])
      in
      let nonzero =
        List.exists (function _, Json.Int n -> n > 0 | _ -> false) counters
      in
      if counters = [] then err "no counters anywhere in the document"
      else if not nonzero then err "all counters are zero";
      let histos =
        List.concat_map
          (function Json.Obj kvs -> kvs | _ -> [])
          (collect "histograms" doc [])
      in
      if histos = [] then err "no histograms anywhere in the document"
      else
        List.iter
          (fun (name, h) ->
            List.iter
              (fun field ->
                if Json.member field h = None then
                  err "histogram %s missing field %s" name field)
              [ "count"; "p50"; "p95"; "p99"; "max"; "buckets" ])
          histos;
      (* mplsweep artifacts additionally promise per-point sweep fields
         and that group commit demonstrably batched once MPL and group
         size allow it. *)
      (match Json.member "meta" doc with
      | Some meta when Json.member "name" meta = Some (Json.Str "mplsweep") -> (
        let points =
          match Json.member "data" doc with
          | Some data -> (
            match Json.member "points" data with
            | Some (Json.List ps) -> ps
            | _ -> [])
          | None -> []
        in
        if points = [] then err "mplsweep: data.points missing or empty"
        else begin
          List.iter
            (fun p ->
              List.iter
                (fun field ->
                  if Json.member field p = None then
                    err "mplsweep point missing field %s" field)
                [
                  "mpl";
                  "group_size";
                  "group_timeout_s";
                  "lock_grain";
                  "tps";
                  "mean_commit_batch";
                  "group_flushes";
                  "lock_wait_p99_s";
                ])
            points;
          let num = function
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> 0.0
          in
          let batching_possible =
            List.exists
              (fun p ->
                num (Json.member "mpl" p) > 1.0
                && num (Json.member "group_size" p) > 1.0)
              points
          in
          let max_batch =
            List.fold_left
              (fun acc p -> Float.max acc (num (Json.member "mean_commit_batch" p)))
              0.0 points
          in
          if batching_possible && max_batch <= 1.0 then
            err
              "mplsweep: no point achieved a mean commit batch > 1 despite \
               MPL > 1 and group size > 1";
          (* Where both endpoints exist for a grouped configuration (at
             the same lock granularity — legacy artifacts carry none and
             still match), MPL 8 must beat MPL 1. *)
          List.iter
            (fun p8 ->
              if
                num (Json.member "mpl" p8) = 8.0
                && num (Json.member "group_size" p8) > 1.0
              then
                List.iter
                  (fun p1 ->
                    if
                      num (Json.member "mpl" p1) = 1.0
                      && Json.member "group_size" p1
                         = Json.member "group_size" p8
                      && Json.member "lock_grain" p1
                         = Json.member "lock_grain" p8
                      && num (Json.member "tps" p8)
                         <= num (Json.member "tps" p1)
                    then
                      err
                        "mplsweep: TPS at MPL 8 (%.2f) not above MPL 1 (%.2f) \
                         for group size %g"
                        (num (Json.member "tps" p8))
                        (num (Json.member "tps" p1))
                        (num (Json.member "group_size" p8)))
                  points)
            points;
          (* Record granularity is the point of hierarchical locking:
             where both grains were swept, record must out-run page at
             MPL 16 (the contention end of the sweep). *)
          let grain_at g p =
            Json.member "lock_grain" p = Some (Json.Str g)
            && num (Json.member "mpl" p) = 16.0
          in
          List.iter
            (fun pr ->
              if grain_at "record" pr then
                List.iter
                  (fun pp ->
                    if
                      grain_at "page" pp
                      && Json.member "group_size" pp
                         = Json.member "group_size" pr
                      && num (Json.member "tps" pr)
                         <= num (Json.member "tps" pp)
                    then
                      err
                        "mplsweep: record-grain TPS at MPL 16 (%.2f) not \
                         above page grain (%.2f) for group size %g"
                        (num (Json.member "tps" pr))
                        (num (Json.member "tps" pp))
                        (num (Json.member "group_size" pr)))
                  points)
            points
        end)
      | _ -> ());
      (* disksweep artifacts promise per-point placement fields, that the
         dedicated log spindle and the stripe beat the shared single disk
         at MPL 8, and that the stripe actually spreads the load. *)
      (match Json.member "meta" doc with
      | Some meta when Json.member "name" meta = Some (Json.Str "disksweep") ->
        let points =
          match Json.member "data" doc with
          | Some data -> (
            match Json.member "points" data with
            | Some (Json.List ps) -> ps
            | _ -> [])
          | None -> []
        in
        if points = [] then err "disksweep: data.points missing or empty"
        else begin
          List.iter
            (fun p ->
              List.iter
                (fun field ->
                  if Json.member field p = None then
                    err "disksweep point missing field %s" field)
                [ "label"; "ndisks"; "log_disk"; "mpl"; "tps"; "disks" ])
            points;
          let num = function
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> 0.0
          in
          let at ~ndisks ~log_disk ~mpl =
            List.find_opt
              (fun p ->
                num (Json.member "ndisks" p) = float_of_int ndisks
                && Json.member "log_disk" p = Some (Json.Bool log_disk)
                && num (Json.member "mpl" p) = float_of_int mpl)
              points
          in
          let require_faster ~what a b =
            if num (Json.member "tps" a) <= num (Json.member "tps" b) then
              err "disksweep: TPS(%s) (%.2f) not above TPS(1 shared) (%.2f) \
                   at MPL 8"
                what
                (num (Json.member "tps" a))
                (num (Json.member "tps" b))
          in
          (match (at ~ndisks:1 ~log_disk:false ~mpl:8,
                  at ~ndisks:1 ~log_disk:true ~mpl:8) with
          | Some shared, Some dedicated ->
            require_faster ~what:"1+log" dedicated shared
          | _ -> ());
          (match (at ~ndisks:1 ~log_disk:false ~mpl:8,
                  at ~ndisks:4 ~log_disk:true ~mpl:8) with
          | Some shared, Some stripe ->
            require_faster ~what:"4+log" stripe shared
          | _ -> ());
          (* Per-disk busy times of a 4-wide stripe must lie within 2x of
             each other — the round-robin layout has no hot spindle. *)
          List.iter
            (fun p ->
              if num (Json.member "ndisks" p) = 4.0 then
                match Json.member "disks" p with
                | Some (Json.List ds) ->
                  let busies =
                    List.filter_map
                      (fun d ->
                        match Json.member "disk" d with
                        | Some (Json.Str name) when name <> "disklog" ->
                          Some (num (Json.member "busy_s" d))
                        | _ -> None)
                      ds
                  in
                  let hi = List.fold_left Float.max 0.0 busies in
                  let lo = List.fold_left Float.min infinity busies in
                  if busies <> [] && hi > 2.0 *. lo then
                    err
                      "disksweep: 4-disk stripe busy times unbalanced at MPL \
                       %g (max %.2fs > 2x min %.2fs)"
                      (num (Json.member "mpl" p))
                      hi lo
                | _ -> ())
            points
        end
      | _ -> ());
      (* logsweep artifacts promise per-point stream-sweep fields, that
         parallel streams pay off at the contended end (4 streams beat 1
         at MPL 16), and that every point carries its per-stream
         force-latency p99. *)
      (match Json.member "meta" doc with
      | Some meta when Json.member "name" meta = Some (Json.Str "logsweep") ->
        let points =
          match Json.member "data" doc with
          | Some data -> (
            match Json.member "points" data with
            | Some (Json.List ps) -> ps
            | _ -> [])
          | None -> []
        in
        if points = [] then err "logsweep: data.points missing or empty"
        else begin
          List.iter
            (fun p ->
              List.iter
                (fun field ->
                  if Json.member field p = None then
                    err "logsweep point missing field %s" field)
                [
                  "streams";
                  "mpl";
                  "tps";
                  "mean_commit_batch";
                  "dep_checks";
                  "dep_forces";
                  "force_p99";
                ];
              (match Json.member "force_p99" p with
              | Some (Json.List (_ :: _ as l)) ->
                List.iter
                  (fun entry ->
                    if
                      Json.member "stream" entry = None
                      || Json.member "p99_s" entry = None
                    then err "logsweep: force_p99 entry missing stream/p99_s")
                  l
              | Some (Json.List []) -> err "logsweep: force_p99 empty"
              | _ -> ()))
            points;
          let num = function
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> 0.0
          in
          let at ~streams ~mpl =
            List.find_opt
              (fun p ->
                num (Json.member "streams" p) = float_of_int streams
                && num (Json.member "mpl" p) = float_of_int mpl)
              points
          in
          match (at ~streams:1 ~mpl:16, at ~streams:4 ~mpl:16) with
          | Some one, Some four ->
            if num (Json.member "tps" four) <= num (Json.member "tps" one)
            then
              err
                "logsweep: TPS(4 streams) (%.2f) not above TPS(1 stream) \
                 (%.2f) at MPL 16"
                (num (Json.member "tps" four))
                (num (Json.member "tps" one))
          | _ -> ()
        end
      | _ -> ());
      (* cleanersweep artifacts promise per-point sweep fields, consistent
         cleaner accounting (every cleaned segment observed exactly once),
         and the headline claim: cost-benefit with segregation degrades
         less from the emptiest to the fullest disk than greedy without,
         at the contended end of the sweep (MPL 8). *)
      (match Json.member "meta" doc with
      | Some meta when Json.member "name" meta = Some (Json.Str "cleanersweep")
        ->
        let points =
          match Json.member "data" doc with
          | Some data -> (
            match Json.member "points" data with
            | Some (Json.List ps) -> ps
            | _ -> [])
          | None -> []
        in
        if points = [] then err "cleanersweep: data.points missing or empty"
        else begin
          let num = function
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> 0.0
          in
          List.iter
            (fun p ->
              List.iter
                (fun field ->
                  if Json.member field p = None then
                    err "cleanersweep point missing field %s" field)
                [
                  "util_pct";
                  "mpl";
                  "policy";
                  "segregate";
                  "tps";
                  "stall_p99_s";
                  "write_cost";
                  "segments_cleaned";
                  "cleans_observed";
                ];
              (* Dead-segment reclaims must still be observed: the clean
                 histogram and the segment counter move in lock step. *)
              let cleaned = num (Json.member "segments_cleaned" p) in
              let observed = num (Json.member "cleans_observed" p) in
              if cleaned <> observed then
                err
                  "cleanersweep: segments_cleaned (%g) != cleans_observed \
                   (%g) at util %g%% mpl %g (%s)"
                  cleaned observed
                  (num (Json.member "util_pct" p))
                  (num (Json.member "mpl" p))
                  (match Json.member "arm" p with
                  | Some (Json.Str a) -> a
                  | _ -> "?"))
            points;
          let at ~policy ~segregate ~util ~mpl =
            List.find_opt
              (fun p ->
                Json.member "policy" p = Some (Json.Str policy)
                && Json.member "segregate" p = Some (Json.Bool segregate)
                && num (Json.member "util_pct" p) = float_of_int util
                && num (Json.member "mpl" p) = float_of_int mpl)
              points
          in
          let utils =
            List.sort_uniq compare
              (List.map (fun p -> num (Json.member "util_pct" p)) points)
          in
          match (utils, List.rev utils) with
          | lo :: _, hi :: _ when lo <> hi -> (
            let lo = int_of_float lo and hi = int_of_float hi in
            let retention ~policy ~segregate =
              match
                ( at ~policy ~segregate ~util:lo ~mpl:8,
                  at ~policy ~segregate ~util:hi ~mpl:8 )
              with
              | Some plo, Some phi when num (Json.member "tps" plo) > 0.0 ->
                Some
                  (num (Json.member "tps" phi)
                  /. num (Json.member "tps" plo))
              | _ -> None
            in
            match
              ( retention ~policy:"cost-benefit" ~segregate:true,
                retention ~policy:"greedy" ~segregate:false )
            with
            | Some cb, Some greedy ->
              if cb <= greedy then
                err
                  "cleanersweep: cost-benefit+seg keeps %.1f%% of its \
                   %d%%-full TPS at %d%% full (MPL 8) — not above greedy's \
                   %.1f%%"
                  (100.0 *. cb) lo hi (100.0 *. greedy)
            | _ -> ())
          | _ -> ()
        end
      | _ -> ()));
    match !errors with
    | [] ->
      Printf.printf "%s: ok\n" file;
      true
    | es ->
      List.iter (fun e -> Printf.printf "%s: %s\n" file e) (List.rev es);
      false
  in
  let run files =
    let ok = List.fold_left (fun acc f -> check f && acc) true files in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Validate BENCH_*.json artifacts: schema envelope present, at least \
          one non-zero counter, and every histogram carries count and \
          p50/p95/p99/max")
    Term.(const run $ files_arg)

(* LFS inspection: build a small fs, exercise it, dump segment usage. *)
let lfsdump_cmd =
  let run () =
    let cfg = Config.scaled ~factor:0.1 Config.default in
    let clock = Clock.create () in
    let stats = Stats.create () in
    let disks = Diskset.create clock stats cfg in
    let fs = Lfs.format disks clock stats cfg in
    let v = Lfs.vfs fs in
    let rng = Rng.create ~seed:1 in
    for i = 0 to 19 do
      let fd = v.Vfs.create (Printf.sprintf "/file%02d" i) in
      let data = Bytes.create (4096 * (1 + Rng.int rng 32)) in
      v.Vfs.write fd ~off:0 data
    done;
    Lfs.sync fs;
    Printf.printf "segments: %d   free: %d\n" (Lfs.nsegments fs)
      (Lfs.free_segments fs);
    Printf.printf "segment live-block counts:\n";
    for i = 0 to Lfs.nsegments fs - 1 do
      let l = Lfs.live_blocks fs i in
      if l > 0 then Printf.printf "  seg %3d: %d live\n" i l
    done;
    Format.printf "%a@." Stats.pp stats
  in
  Cmd.v
    (Cmd.info "lfs-dump" ~doc:"Build a demo LFS image and dump segment usage")
    Term.(const run $ const ())

let fsck_cmd =
  let run () =
    let cfg = Config.scaled ~factor:0.1 Config.default in
    let clock = Clock.create () in
    let stats = Stats.create () in
    let disk = Disk.create clock stats cfg.Config.disk in
    let fs = Ffs.format disk clock stats cfg in
    let v = Ffs.vfs fs in
    let fd = v.Vfs.create "/data" in
    v.Vfs.write fd ~off:0 (Bytes.create 100_000);
    v.Vfs.fsync fd;
    Ffs.crash fs;
    let fs = Ffs.mount disk clock stats cfg in
    let r = Ffs.fsck fs in
    Printf.printf
      "fsck: %d inodes scanned, %d leaked blocks, %d cross-allocated, fixed=%b\n"
      r.Ffs.scanned_inodes r.Ffs.leaked_blocks r.Ffs.cross_allocated r.Ffs.fixed
  in
  Cmd.v
    (Cmd.info "ffs-fsck" ~doc:"Demonstrate FFS crash + fsck repair")
    Term.(const run $ const ())

let snapshot_cmd =
  let run () =
    let cfg = Config.scaled ~factor:0.1 Config.default in
    let clock = Clock.create () in
    let stats = Stats.create () in
    let disks = Diskset.create clock stats cfg in
    let fs = Lfs.format disks clock stats cfg in
    let v = Lfs.vfs fs in
    let fd = v.Vfs.create "/journal" in
    v.Vfs.write fd ~off:0 (Bytes.of_string "day 1: all is well");
    let snap = Lfs.snapshot fs in
    Printf.printf "snapshot taken; %d segment(s) free for new writes\n"
      (Lfs.free_segments fs);
    v.Vfs.write fd ~off:0 (Bytes.of_string "day 2: overwritten!");
    v.Vfs.remove "/journal";
    v.Vfs.sync ();
    Printf.printf "present: /journal exists = %b\n" (v.Vfs.exists "/journal");
    let old = Lfs.snapshot_view fs snap in
    Printf.printf "snapshot: /journal exists = %b, contents = %S\n"
      (old.Vfs.exists "/journal")
      (Bytes.to_string
         (old.Vfs.read (old.Vfs.open_file "/journal") ~off:0 ~len:100));
    Lfs.release_snapshot fs snap;
    print_endline "snapshot released; segments returned to the cleaner"
  in
  Cmd.v
    (Cmd.info "snapshot-demo"
       ~doc:"Demonstrate snapshots and undelete on the no-overwrite log")
    Term.(const run $ const ())

(* Crash-point sweeps: exhaustive fault injection over a seeded
   workload, or a single replay of one reported (seed, crash_point). *)
let faultsim_cmd =
  let backend_arg =
    let doc = "Backend: lfs-kernel, lfs-user, or ffs-user." in
    Arg.(value & opt string "lfs-kernel" & info [ "backend" ] ~docv:"B" ~doc)
  in
  let points_arg =
    let doc = "Number of evenly spaced crash points (0 = every write)." in
    Arg.(value & opt int 0 & info [ "points" ] ~docv:"N" ~doc)
  in
  let crash_point_arg =
    let doc =
      "Replay a single run that crashes after exactly $(docv) block writes \
       (skips the sweep)."
    in
    Arg.(value & opt (some int) None & info [ "crash-point" ] ~docv:"N" ~doc)
  in
  let workload_arg =
    let doc = "Workload: pages (random transactional page writes) or tpcb." in
    Arg.(value & opt string "tpcb" & info [ "workload" ] ~docv:"W" ~doc)
  in
  let verbose_arg =
    let doc = "Print every run's outcome, not just violations." in
    Arg.(value & flag & info [ "verbose" ] ~doc)
  in
  let run backend workload txns seed points crash_point verbose mpl ndisks
      log_disk log_streams grain =
    let usage msg =
      prerr_endline ("txnlfs faultsim: " ^ msg);
      exit 2
    in
    let backend =
      try Sweep.backend_of_string backend
      with Invalid_argument _ ->
        usage ("unknown backend " ^ backend ^ " (lfs-kernel, lfs-user, ffs-user)")
    in
    let one, swp =
      match (workload, mpl) with
      | "pages", 1 ->
        ( Sweep.run_one ~ndisks ~log_disk ~log_streams,
          Sweep.sweep ~ndisks ~log_disk ~log_streams )
      | "pages", _ -> usage "--mpl applies to the tpcb workload only"
      | "tpcb", _ ->
        let lock_grain = parse_grain grain in
        ( (fun backend ~seed ~txns ?crash_point () ->
            Sweep.run_one_tpcb_mpl ~ndisks ~log_disk ~log_streams ~lock_grain
              backend ~seed ~txns ~mpl ?crash_point ()),
          fun ?progress backend ~seed ~txns ~points ->
            Sweep.sweep_tpcb_mpl ?progress ~ndisks ~log_disk ~log_streams
              ~lock_grain backend ~seed ~txns ~mpl ~points )
      | w, _ -> usage ("unknown workload " ^ w ^ " (pages, tpcb)")
    in
    if parse_grain grain = `Record && workload <> "tpcb" then
      usage "--lock-grain record applies to the tpcb workload only";
    match crash_point with
    | Some p ->
      let o = one backend ~seed ~txns ~crash_point:p () in
      print_endline (Sweep.describe o);
      if o.Sweep.violations <> [] then exit 1
    | None ->
      let progress o = if verbose then print_endline (Sweep.describe o) in
      let r = swp ~progress backend ~seed ~txns ~points in
      List.iter (fun o -> print_endline (Sweep.describe o)) r.Sweep.failures;
      Printf.printf
        "%s/%s seed=%d: swept %d of %d crash points, %d violation(s)\n"
        (Sweep.backend_name backend)
        workload seed r.Sweep.points_run r.Sweep.total_writes
        (List.length r.Sweep.failures);
      if r.Sweep.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Crash after every k-th disk write, recover, and check the \
          durability oracle")
    Term.(
      const run $ backend_arg $ workload_arg $ txns_arg 25 $ seed_arg
      $ points_arg $ crash_point_arg $ verbose_arg $ mpl_arg $ ndisks_arg
      $ log_disk_arg $ log_streams_arg $ lock_grain_arg)

let main =
  Cmd.group
    (Cmd.info "txnlfs" ~version:"1.0.0"
       ~doc:
         "Reproduction of Seltzer's 'Transaction Support in a Log-Structured \
          File System' (ICDE 1993)")
    [
      fig4_cmd;
      fig5_cmd;
      fig6_cmd;
      fig7_cmd;
      ablation_cmd;
      tpcb_cmd;
      mplsweep_cmd;
      disksweep_cmd;
      logsweep_cmd;
      cleanersweep_cmd;
      trace_cmd;
      bench_check_cmd;
      lfsdump_cmd;
      fsck_cmd;
      snapshot_cmd;
      faultsim_cmd;
    ]

let () = exit (Cmd.eval main)
