type tpcb_run = {
  setup : Machine.setup;
  seed : int;
  result : Tpcb.result;
  cleaner_stall_s : float;
  cleaner_max_stall_s : float;
  lock_blocks : int;
  deadlocks : int;
  restarts : int;
  stats : Stats.t;
}

let scaled_config ?config tps_scale =
  match config with
  | Some c -> c
  | None -> Config.scaled ~factor:(float_of_int tps_scale /. 10.0) Config.default

let on_demand_cleaner (c : Config.t) =
  { c with Config.fs = { c.Config.fs with Config.cleaner_adaptive = false } }

let run_tpcb_mpl ?(pool_pages = 1024) ?trace ?prepare ~config ~scale ~txns
    ~seed ~mpl setup =
  let m = Machine.boot ?trace config setup in
  let rng = Rng.create ~seed in
  ignore (Machine.build m ~rng ~scale);
  let backend = Machine.open_txn m ~pool_pages in
  Option.iter (fun f -> f m) prepare;
  let db = Tpcb.open_db (Machine.vfs m) ~scale in
  (* Measure the transaction phase only, like the paper. Cleaner stall
     accounting is also restricted to the measured window. *)
  let stall0 = Stats.time m.Machine.stats "cleaner.stall" in
  let multi = Machine.run_window m db backend ~rng ~txns ~mpl in
  let stats = m.Machine.stats in
  {
    setup;
    seed;
    result = multi.Tpcb.base;
    cleaner_stall_s = Stats.time stats "cleaner.stall" -. stall0;
    cleaner_max_stall_s = Stats.max_of stats "cleaner.max_stall";
    lock_blocks = multi.Tpcb.conflicts;
    deadlocks = multi.Tpcb.deadlocks;
    restarts = multi.Tpcb.restarts;
    stats;
  }

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stdev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs))

let gain_pct (a : tpcb_run) (b : tpcb_run) =
  100.0 *. ((a.result.Tpcb.tps /. b.result.Tpcb.tps) -. 1.0)

let pp_header title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* Machine-readable benchmark artifacts ----------------------------------- *)

let config_json (c : Config.t) =
  let d = c.Config.disk and cpu = c.Config.cpu and fs = c.Config.fs in
  Json.Obj
    [
      ( "disk",
        Json.Obj
          [
            ("block_size", Json.Int d.Config.block_size);
            ("nblocks", Json.Int d.Config.nblocks);
            ("blocks_per_cylinder", Json.Int d.Config.blocks_per_cylinder);
            ("min_seek_s", Json.Float d.Config.min_seek_s);
            ("max_seek_s", Json.Float d.Config.max_seek_s);
            ("rpm", Json.Float d.Config.rpm);
            ("transfer_bytes_per_s", Json.Float d.Config.transfer_bytes_per_s);
          ] );
      ( "cpu",
        Json.Obj
          [
            ("syscall_s", Json.Float cpu.Config.syscall_s);
            ("context_switch_s", Json.Float cpu.Config.context_switch_s);
            ("has_test_and_set", Json.Bool cpu.Config.has_test_and_set);
            ("test_and_set_s", Json.Float cpu.Config.test_and_set_s);
            ("copy_block_s", Json.Float cpu.Config.copy_block_s);
            ("buffer_lookup_s", Json.Float cpu.Config.buffer_lookup_s);
            ("protection_check_s", Json.Float cpu.Config.protection_check_s);
            ("record_op_s", Json.Float cpu.Config.record_op_s);
            ("cursor_next_s", Json.Float cpu.Config.cursor_next_s);
            ("lock_op_s", Json.Float cpu.Config.lock_op_s);
            ("log_record_s", Json.Float cpu.Config.log_record_s);
            ("file_op_s", Json.Float cpu.Config.file_op_s);
            ("compile_unit_s", Json.Float cpu.Config.compile_unit_s);
          ] );
      ( "fs",
        Json.Obj
          [
            ("kernel_txn", Json.Bool fs.Config.kernel_txn);
            ("segment_blocks", Json.Int fs.Config.segment_blocks);
            ("cache_blocks", Json.Int fs.Config.cache_blocks);
            ("syncer_interval_s", Json.Float fs.Config.syncer_interval_s);
            ("checkpoint_segments", Json.Int fs.Config.checkpoint_segments);
            ("cleaner_low_segments", Json.Int fs.Config.cleaner_low_segments);
            ("cleaner_high_segments", Json.Int fs.Config.cleaner_high_segments);
            ( "cleaner_policy",
              Json.Str
                (Config.name_of Config.cleaner_policies
                   fs.Config.cleaner_policy) );
            ("cleaner_segregate", Json.Bool fs.Config.cleaner_segregate);
            ("cleaner_adaptive", Json.Bool fs.Config.cleaner_adaptive);
            ( "cleaner_backoff_qdepth",
              Json.Int fs.Config.cleaner_backoff_qdepth );
            ("lfs_user_cleaner", Json.Bool fs.Config.lfs_user_cleaner);
            ("group_commit_timeout_s", Json.Float fs.Config.group_commit_timeout_s);
            ("group_commit_size", Json.Int fs.Config.group_commit_size);
            ("ndisks", Json.Int fs.Config.ndisks);
            ("log_disk", Json.Bool fs.Config.log_disk);
            ("log_streams", Json.Int fs.Config.log_streams);
            ( "lock_grain",
              Json.Str (Config.name_of Config.lock_grains fs.Config.lock_grain)
            );
            ("lock_escalation", Json.Int fs.Config.lock_escalation);
          ] );
    ]

let config_fingerprint c =
  Printf.sprintf "%08x" (Hashtbl.hash (Json.to_string (config_json c)))

let bench_doc ~name ~config data =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          [
            ("name", Json.Str name);
            ("schema", Json.Int 1);
            ("generator", Json.Str "txnlfs");
            ("config_fingerprint", Json.Str (config_fingerprint config));
            ("config", config_json config);
          ] );
      ("data", data);
    ]

let emit_bench ~name ~config data =
  let dir =
    match Sys.getenv_opt "BENCH_DIR" with Some d when d <> "" -> d | _ -> "."
  in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (bench_doc ~name ~config data));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Every artifact's [meta] and the instrumentation it must carry
   somewhere in the document: at least one non-zero counter, and every
   histogram with its summary fields. *)
let check_envelope doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* The fields of every object stored under [key], at any depth. *)
  let rec fields key = function
    | Json.Obj kvs ->
      List.concat_map
        (fun (k, v) ->
          (match v with Json.Obj inner when k = key -> inner | _ -> [])
          @ fields key v)
        kvs
    | Json.List l -> List.concat_map (fields key) l
    | _ -> []
  in
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
  let counters = fields "counters" doc in
  if counters = [] then err "no counters anywhere in the document"
  else if
    not (List.exists (function _, Json.Int n -> n > 0 | _ -> false) counters)
  then err "all counters are zero";
  (match fields "histograms" doc with
  | [] -> err "no histograms anywhere in the document"
  | histos ->
    List.iter
      (fun (name, h) ->
        List.iter
          (fun field ->
            if Json.member field h = None then
              err "histogram %s missing field %s" name field)
          [ "count"; "p50"; "p95"; "p99"; "max"; "buckets" ])
      histos);
  List.rev !errors

let result_fields (r : tpcb_run) =
  [
    ("tps", Json.Float r.result.Tpcb.tps);
    ("elapsed_s", Json.Float r.result.Tpcb.elapsed_s);
    ("txns", Json.Int r.result.Tpcb.txns);
    ("max_latency_s", Json.Float r.result.Tpcb.max_latency_s);
    ("cleaner_stall_s", Json.Float r.cleaner_stall_s);
  ]

let tpcb_run_json r =
  Json.Obj
    ([ ("setup", Json.Str (Machine.key r.setup)); ("seed", Json.Int r.seed) ]
    @ result_fields r
    @ [
        ("cleaner_max_stall_s", Json.Float r.cleaner_max_stall_s);
        ("stats", Stats.to_json r.stats);
      ])

let scale_json (s : Tpcb.scale) =
  Json.Obj
    [
      ("accounts", Json.Int s.Tpcb.accounts);
      ("tellers", Json.Int s.Tpcb.tellers);
      ("branches", Json.Int s.Tpcb.branches);
    ]

(* TPC-B sweeps -------------------------------------------------------------- *)

type 'p sweep = {
  points : 'p list;
  scale : Tpcb.scale;
  txns : int;
  config : Config.t;
  setup : Machine.setup;
}

let spread_scale ~accounts_per_tps tps =
  {
    Tpcb.accounts = accounts_per_tps * tps;
    tellers = 200 * tps;
    branches = 200 * tps;
  }

let pp_sweep_header title s =
  pp_header
    (Printf.sprintf "%s: %s, TPC-B, %d accounts, %d txns per point" title
       (Machine.label s.setup) s.scale.Tpcb.accounts s.txns)

let sweep_json ~figure ?(with_setup = true) point_json s =
  let setup = [ ("setup", Json.Str (Machine.key s.setup)) ] in
  Json.Obj
    ((("figure", Json.Str figure) :: (if with_setup then setup else []))
    @ [
        ("scale", scale_json s.scale);
        ("txns", Json.Int s.txns);
        ("points", Json.List (List.map point_json s.points));
      ])

let run_fields r =
  result_fields r
  @ [
      ("lock_blocks", Json.Int r.lock_blocks);
      ("deadlocks", Json.Int r.deadlocks);
      ("restarts", Json.Int r.restarts);
      ("stats", Stats.to_json r.stats);
    ]

let histo_p99 stats key =
  match Stats.histo stats key with
  | Some h -> Histo.percentile h 0.99
  | None -> 0.0

let histo_mean ?(empty = 0.0) stats key =
  match Stats.histo stats key with
  | Some h when Histo.count h > 0 -> Histo.mean h
  | _ -> empty

let histo_count stats key =
  match Stats.histo stats key with Some h -> Histo.count h | None -> 0

let num key j =
  Option.value ~default:0.0 (Option.bind (Json.member key j) Json.to_float_opt)

let tps_above a_name a b_name b context =
  if num "tps" a > num "tps" b then None
  else
    Some
      (Printf.sprintf "%s (%.2f) not above %s (%.2f)%s" a_name (num "tps" a)
         b_name (num "tps" b) context)

let check_sweep ~name ~fields rules doc =
  let data = Option.value ~default:Json.Null (Json.member "data" doc) in
  match Json.member "points" data with
  | Some (Json.List (_ :: _ as points)) ->
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
    List.iteri
      (fun i p ->
        List.iter
          (fun field ->
            if Json.member field p = None then
              err "%s point missing field %s" name field)
          fields;
        if num "txns" p <> num "txns" data then
          err "%s: point %d txns (%g) != data.txns (%g)" name i (num "txns" p)
            (num "txns" data);
        if num "tps" p <= 0.0 then
          err "%s: point %d tps (%g) not above 0" name i (num "tps" p))
      points;
    List.rev_append !errors (rules points)
  | _ -> [ name ^ ": data.points missing or empty" ]
