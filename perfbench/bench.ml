(* The repo benchmark: TPC-B workloads on the simulated machine, measured
   end to end on the simulated and host clocks, with a separate traced
   run for per-layer numbers. See README.md beside this file. *)

let usage =
  "usage: bench --workload NAME|all --seed N --seconds S --trace 0|1\n\
  \       bench --sweep N [--seed FIRST] [--workload NAME|all]\n\
  \       bench --manifest"

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable sweep : int option;
  mutable manifest : bool;
  mutable setup_only : bool;
}

let parse argv =
  let o =
    {
      workload = "all";
      seed = 1;
      seconds = float_of_int Catalog.run_seconds;
      trace = false;
      sweep = None;
      manifest = false;
      setup_only = false;
    }
  in
  let bad msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  let int_arg k v = match int_of_string_opt v with Some i -> i | None -> bad (k ^ ": not an integer") in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- v; go rest
    | "--seed" :: v :: rest -> o.seed <- int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> o.seconds <- s
      | _ -> bad "--seconds: not a positive number");
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> o.trace <- false
      | "1" -> o.trace <- true
      | _ -> bad "--trace: 0 or 1");
      go rest
    | "--sweep" :: v :: rest -> o.sweep <- Some (int_arg "--sweep" v); go rest
    | "--manifest" :: rest -> o.manifest <- true; go rest
    | "--setup-only" :: rest -> o.setup_only <- true; go rest
    | a :: _ -> bad ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list argv));
  o

(* A sweep of "all" also runs the known-defect configurations, to report
   their failure rates. *)
let specs o =
  if o.workload = "all" then
    if o.sweep <> None then Rig.specs @ Rig.known_defects else Rig.specs
  else
    match Rig.find o.workload with
    | Some s -> [ s ]
    | None ->
      prerr_endline ("unknown workload " ^ o.workload ^ "\n" ^ usage);
      exit 2

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let word_bytes = float_of_int (Sys.word_size / 8)
let peak_heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1e6

(* A round reduced to what the report needs, so that rounds' spans and
   trace rings can be freed as soon as they are measured. *)
type summary = {
  seed : int;
  requested : int;
  acked : int;
  durable : int;
  db_bytes : int;
  run_error : string option;
  failures : string list;
  sim : (string * float) list;  (* simulated metrics: must repeat exactly *)
  host : (string * float) list;
  layers : (string * float) list;
  checks : (string * bool * string) list;
}

let per_txn (r : Rig.round) x = if r.Rig.acked > 0 then x /. float_of_int r.Rig.acked else nan

let span_sum (r : Rig.round) names f =
  List.fold_left
    (fun acc n -> match Spans.find r.Rig.spans n with Some s -> acc +. f s | None -> acc)
    0.0 names

let summarize (r : Rig.round) =
  let host_of n = span_sum r [ n ] Spans.host_s in
  let recovery = [ "crash"; "mount"; "recover" ] in
  let layers =
    r.Rig.layers.Layers.values
    @ [
        ("workload.scan_s", r.Rig.scan_s);
        ("db.cursor_next_n", float_of_int r.Rig.scan_cursor_next);
        ("phase.format_s", host_of "format");
        ("phase.build_s", host_of "build");
        ("phase.env_s", host_of "env");
        ("phase.build_alloc_mw", span_sum r [ "build" ] Spans.alloc_w /. 1e6);
        ("phase.recover_s", span_sum r recovery Spans.host_s);
        ("recovery.sim_s", span_sum r recovery Spans.sim_s);
      ]
  in
  let simulated name =
    (* Phase numbers are host-clock readings, and VFS numbers exist only
       when the record is wrapped (traced rounds); the rest are simulated
       and must not depend on tracing. *)
    not (String.starts_with ~prefix:"phase." name || String.starts_with ~prefix:"vfs." name)
  in
  {
    seed = r.Rig.seed;
    requested = r.Rig.requested;
    acked = r.Rig.acked;
    durable = r.Rig.durable;
    db_bytes = r.Rig.db_bytes;
    run_error = r.Rig.run_error;
    failures = r.Rig.failures;
    sim =
      [
        ( "sim_tps",
          if r.Rig.window_sim_s > 0.0 then float_of_int r.Rig.acked /. r.Rig.window_sim_s else 0.0 );
        ("commit_p50_s", r.Rig.p50_s);
        ("commit_p999_s", r.Rig.p999_s);
        ("txn_ok_frac", float_of_int r.Rig.durable /. float_of_int r.Rig.requested);
      ]
      @ List.filter (fun (k, _) -> simulated k) layers;
    host =
      [
        ("setup_s", r.Rig.setup_host_s);
        ("setup_alloc_mw", r.Rig.setup_alloc_w /. 1e6);
        ("host_us_per_txn", 1e6 *. per_txn r r.Rig.window_host_s);
        ("alloc_kw_per_txn", per_txn r r.Rig.window_alloc_w /. 1e3);
      ];
    layers;
    checks = r.Rig.layers.Layers.checks;
  }

(* Simulated metrics of [b] that are not bit-identical to [a]'s. *)
let sim_diff a b =
  List.filter_map
    (fun (k, va) ->
      match List.assoc_opt k b.sim with
      | Some vb when Int64.bits_of_float va = Int64.bits_of_float vb -> None
      | _ -> Some k)
    a.sim

let same_sim a b = sim_diff a b = []

let run_round ~traced spec ~seed =
  let r = Rig.run ~traced spec ~seed in
  (r, summarize r)

let unit_of name =
  match List.find_opt (fun m -> m.Catalog.name = name) (Catalog.end_to_end @ Catalog.per_layer) with
  | Some m -> m.Catalog.unit_
  | None -> "?"

let print_round_line s =
  Printf.printf "  seed %d: %d/%d acknowledged, %d durable%s\n" s.seed s.acked s.requested s.durable
    (match s.run_error with Some e -> "; window raised " ^ e | None -> "");
  List.iter (fun f -> Printf.printf "    FAILED %s\n" f) s.failures;
  List.iter
    (fun (name, ok, detail) -> if not ok then Printf.printf "    CHECK FAILED %s: %s\n" name detail)
    s.checks

(* Overall verdict over a run's rounds. *)
let verdict sums =
  let first = List.hd sums in
  let problems =
    List.concat_map
      (fun s ->
        List.map (fun f -> Printf.sprintf "seed %d: %s" s.seed f) s.failures
        @ List.filter_map
            (fun (name, ok, detail) -> if ok then None else Some (name ^ ": " ^ detail))
            s.checks
        @
        match sim_diff first s with
        | [] -> []
        | ks -> [ "simulated metrics differ between rounds of one seed: " ^ String.concat ", " ks ])
      sums
  in
  let attempted = List.fold_left (fun a s -> a + s.requested) 0 sums in
  let failed = List.fold_left (fun a s -> a + (s.requested - s.durable)) 0 sums in
  (problems, attempted, failed)

let metric_json (k, v) = (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of k)) ])

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj metrics);
       ])

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (k, v) -> Printf.printf "  %-34s %14.6g %s\n" k v (unit_of k)) metrics

(* Rounds of one seed, at least [min]; after those, another round starts
   only if it should end within [seconds] of [t0], judged by the last
   round's length. The first round also warms the process heap (the first
   boot of a machine pays for growing it), so host figures are medians
   over the rounds after it; simulated figures must repeat exactly in
   every round. *)
let rounds ~t0 ~seconds ~min f =
  let rec loop n acc =
    Gc.full_major ();
    let r0 = Spans.now () in
    let acc = f n :: acc in
    let now = Spans.now () in
    if n + 1 >= min && now -. t0 +. (now -. r0) > seconds then List.rev acc else loop (n + 1) acc
  in
  loop 0 []

let host_median k sums = median (List.map (fun s -> List.assoc k s.host) sums)

(* Run this program with [args] in a fresh process and return the last
   line it prints if it exits with 0; with [relay], print the lines
   before it as they come. *)
let child ?(relay = false) args =
  flush stdout;
  let ic = Unix.open_process_args_in Sys.executable_name (Array.append [| Sys.executable_name |] args) in
  let rec read prev =
    match input_line ic with
    | l ->
      if relay then Option.iter (Printf.printf "%s\n%!") prev;
      read (Some l)
    | exception End_of_file -> prev
  in
  let last = read None in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> last | _ -> None

(* Cold set-up time: set the workload up in a fresh process of this
   program, which prints the seconds as its last line. A process set up
   before pays for growing its heap from nothing, as every run of a
   simulator command does; later set-ups in one process reuse that heap
   and settle at a level that differs from process to process. *)
let cold_setup_s spec ~seed =
  match
    Option.bind
      (child [| "--workload"; spec.Rig.name; "--seed"; string_of_int seed; "--setup-only" |])
      float_of_string_opt
  with
  | Some v -> Ok v
  | None -> Error "set-up subprocess failed"

(* Cold set-ups in fresh processes per run: at least [min], and up to
   [max] while they stay within [share] of the run's seconds (judged by
   the last one's length). A short set-up thus gets a median over many,
   a long one costs at most a few. The first round adds one more. *)
let cold_setups ~seconds spec ~seed =
  let min = 2 and max = 8 and share = 0.25 in
  let t0 = Spans.now () in
  let rec loop n acc =
    let r0 = Spans.now () in
    let acc = cold_setup_s spec ~seed :: acc in
    let now = Spans.now () in
    if n + 1 >= max || (n + 1 >= min && now -. t0 +. (now -. r0) > share *. seconds) then List.rev acc
    else loop (n + 1) acc
  in
  loop 0 []

(* The set-ups and rounds all count against [seconds]. Two rounds are the
   least: the first gives the simulated figures and a cold set-up, the
   second a warm window for the host figures. *)
let end_to_end spec ~seed ~seconds =
  let t0 = Spans.now () in
  let cold = cold_setups ~seconds spec ~seed in
  let sums = rounds ~t0 ~seconds ~min:2 (fun _ -> snd (run_round ~traced:false spec ~seed)) in
  let first = List.hd sums and measured = List.tl sums in
  let cold_ok = List.filter_map Result.to_option cold in
  let setups = List.assoc "setup_s" first.host :: cold_ok in
  let metrics =
    List.map
      (fun m ->
        let k = m.Catalog.name in
        match List.assoc_opt k first.sim with
        | Some v -> (k, v)
        | None -> (
          match k with
          | "peak_heap_mb" -> (k, peak_heap_mb ())
          | "setup_s" -> (k, median setups)
          | "setup_alloc_mw" -> (k, List.assoc k first.host)
          | _ -> (k, host_median k measured)))
      Catalog.end_to_end
  in
  Printf.printf "== %s (%s, MPL %d, %d txns, seed %d): %d round(s) in %.1f s\n" spec.Rig.name
    (Rig.kind_label spec.Rig.kind) spec.Rig.mpl Rig.txns seed (List.length sums)
    (Spans.now () -. t0);
  let c = spec.Rig.config in
  let mb blocks = float_of_int (blocks * c.Config.disk.Config.block_size) /. 1e6 in
  Printf.printf "  database %.1f MB after build; cache %.1f MB; %d data disk(s) of %.1f MB\n"
    (float_of_int first.db_bytes /. 1e6) (mb c.Config.fs.Config.cache_blocks) c.Config.fs.Config.ndisks
    (mb c.Config.disk.Config.nblocks);
  print_round_line first;
  let show = List.map (Printf.sprintf " %.4g") in
  Printf.printf "  cold set-ups (s):%s\n" (String.concat "" (show setups));
  List.iter
    (fun k ->
      Printf.printf "  %s by round:%s\n" k
        (String.concat "" (show (List.map (fun s -> List.assoc k s.host) sums))))
    [ "setup_s"; "host_us_per_txn" ];
  Printf.printf "  not gated: host_us_per_txn %.6g us, workload.scan_s %.6g s\n"
    (host_median "host_us_per_txn" measured) (List.assoc "workload.scan_s" first.sim);
  let problems, attempted, failed = verdict sums in
  let problems = problems @ List.filter_map (function Error e -> Some e | Ok _ -> None) cold in
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) problems;
  Printf.printf "  txn_fail_frac %.6g\n" (float_of_int failed /. float_of_int attempted);
  print_metrics "  end-to-end metrics:" metrics;
  (problems = [], attempted, failed, metrics)

(* Spans of one traced round: self time of every phase span on both
   clocks, then VFS calls by operation. *)
let span_summary (r : Rig.round) =
  let sp = r.Rig.spans in
  Printf.printf "  spans (self time: host s / simulated s):\n";
  List.iter
    (fun s ->
      if s.Spans.cat = "phase" then begin
        let h, m = Spans.self_times sp s in
        Printf.printf "    %-12s host %9.4f / %9.4f  sim %11.4f / %11.4f%s\n" s.Spans.name
          (Spans.host_s s) h (Spans.sim_s s) m
          (if s.Spans.failed then "  (raised)" else "")
      end)
    (Spans.all sp);
  let groups = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Spans.is_vfs s then begin
        let key = s.Spans.cat ^ "." ^ s.Spans.name in
        let n, sim, ivs = Option.value (Hashtbl.find_opt groups key) ~default:(0, 0.0, []) in
        Hashtbl.replace groups key (n + 1, sim +. Spans.sim_s s, (s.Spans.host0, s.Spans.host1) :: ivs)
      end)
    (Spans.all sp);
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups []) in
  if keys <> [] then
    Printf.printf "  VFS calls outside the build (count, host s covered, simulated s summed):\n";
  List.iter
    (fun k ->
      let n, sim, ivs = Hashtbl.find groups k in
      Printf.printf "    %-22s %8d %9.4f %11.4f\n" k n (Spans.coverage ivs) sim)
    keys;
  let tallies = List.sort compare (Hashtbl.fold (fun k t acc -> (k, t) :: acc) sp.Spans.tallies []) in
  if tallies <> [] then
    Printf.printf "  VFS calls in the build (count, host s summed, simulated s summed):\n";
  List.iter
    (fun (k, t) -> Printf.printf "    %-22s %8d %9.4f %11.4f\n" k t.Spans.n t.Spans.host t.Spans.sim)
    tallies

(* The per-layer numbers a traced run reports, by layer. *)
let print_layers metrics =
  let current = ref "" in
  Printf.printf "  per-layer metrics (window):\n";
  List.iter
    (fun m ->
      if m.Catalog.layer <> !current then begin
        current := m.Catalog.layer;
        Printf.printf "   [%s]\n" m.Catalog.layer
      end;
      match List.assoc_opt m.Catalog.name metrics with
      | Some v -> Printf.printf "    %-34s %14.6g %s\n" m.Catalog.name v m.Catalog.unit_
      | None -> ())
    Catalog.per_layer

(* Where traced runs write their Chrome traces, relative to the root of
   the checkout. *)
let out = "perfbench/out"

(* Traced run: a warm-up round, then traced and untraced rounds of the
   seed in turn, within [seconds] as in [rounds]. Per-layer numbers are
   medians over the traced rounds, except the phase timings, which come
   from the untraced ones (the wrapped VFS slows the build down). The
   first traced round's spans and trace ring are written as Chrome
   trace-event JSON. *)
let traced spec ~seed ~seconds =
  let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" spec.Rig.name seed) in
  let round i =
    if i = 0 then `Warm (snd (run_round ~traced:false spec ~seed))
    else if i mod 2 = 0 then `Untraced (snd (run_round ~traced:false spec ~seed))
    else begin
      let r, t = run_round ~traced:true spec ~seed in
      if i = 1 then begin
        if not (Sys.file_exists out) then Sys.mkdir out 0o755;
        let ring f = match r.Rig.ring with Some tr -> f tr | None -> 0 in
        let meta =
          Json.Obj
            [
              ("workload", Json.Str spec.Rig.name);
              ("seed", Json.Int seed);
              ("txns", Json.Int Rig.txns);
              ("ring_events", Json.Int (ring Trace.length));
              ("ring_dropped", Json.Int (ring Trace.dropped));
            ]
        in
        Spans.write_chrome path r.Rig.spans ~meta ~ring:r.Rig.ring;
        Printf.printf "== %s traced (seed %d)\n  trace: %s\n" spec.Rig.name seed path;
        span_summary r
      end;
      `Traced t
    end
  in
  let all = rounds ~t0:(Spans.now ()) ~seconds ~min:3 round in
  let pick f = List.filter_map f all in
  let warm = pick (function `Warm s -> Some s | _ -> None) in
  let tr = pick (function `Traced s -> Some s | _ -> None) in
  let un = pick (function `Untraced s -> Some s | _ -> None) in
  let problems, attempted, failed = verdict (warm @ tr @ un) in
  let traced_us = host_median "host_us_per_txn" tr in
  let untraced_us = host_median "host_us_per_txn" un in
  let overhead = traced_us -. untraced_us in
  let layer_median k sums = median (List.map (fun s -> List.assoc k s.layers) sums) in
  let metrics =
    List.map
      (fun m ->
        let k = m.Catalog.name in
        if k = "trace.overhead_us_per_txn" then (k, overhead)
        else if k = "host_us_per_txn" then (k, untraced_us)
        else if String.starts_with ~prefix:"phase." k then (k, layer_median k un)
        else (k, layer_median k tr))
      Catalog.per_layer
  in
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) problems;
  Printf.printf "  simulated metrics traced vs untraced: %s\n"
    (if List.for_all (same_sim (List.hd warm)) tr then "bit-identical" else "DIFFERENT");
  Printf.printf
    "  tracing overhead: traced %.1f - untraced %.1f = %+.1f us/txn (%+.1f%%), %d traced and %d untraced round(s)\n"
    traced_us untraced_us overhead (100.0 *. overhead /. untraced_us) (List.length tr) (List.length un);
  (* A layer number whose window check failed is not printed. *)
  if problems = [] then print_layers metrics
  else Printf.printf "  per-layer metrics withheld: a check failed\n";
  let metrics = if problems = [] then metrics else [] in
  (problems = [], attempted, failed, metrics)

(* Seed sweep: one untraced round per seed, [n] seeds from [first];
   report failures and why. *)
let sweep specs ~first n =
  let bad = ref 0 in
  List.iter
    (fun spec ->
      Printf.printf "== %s: seeds %d..%d, %d txns\n%!" spec.Rig.name first (first + n - 1) Rig.txns;
      let failed =
        List.filter_map
          (fun seed ->
            Gc.full_major ();
            let _, s = run_round ~traced:false spec ~seed in
            print_round_line s;
            Printf.printf "%!";
            let why =
              Option.to_list (Option.map (fun e -> "window raised " ^ e) s.run_error)
              @ s.failures
              @ List.filter_map (fun (k, ok, d) -> if ok then None else Some (k ^ ": " ^ d)) s.checks
            in
            if why = [] then None else Some (seed, String.concat "; " why))
          (List.init n (fun i -> first + i))
      in
      bad := !bad + List.length failed;
      Printf.printf "  %s: %d of %d seeds failed\n" spec.Rig.name (List.length failed) n;
      List.iter (fun (seed, why) -> Printf.printf "    seed %d: %s\n" seed why) failed)
    specs;
  !bad

(* Run one workload in a fresh process of this program, pass its report
   on and read its result line. *)
let run_alone (o : opts) spec =
  let last =
    child ~relay:true
      [|
        "--workload"; spec.Rig.name; "--seed"; string_of_int o.seed;
        "--seconds"; Printf.sprintf "%.17g" o.seconds; "--trace"; (if o.trace then "1" else "0");
      |]
  in
  let result =
    match Option.bind last Json.of_string_opt with
    | Some j -> (
      match (Json.member "correct" j, Json.member "attempted" j, Json.member "failed" j, Json.member "metrics" j) with
      | Some (Json.Bool c), Some (Json.Int a), Some (Json.Int f), Some (Json.Obj m) -> Some (c, a, f, m)
      | _ -> None)
    | None -> None
  in
  match result with
  | Some r -> r
  | None ->
    Printf.printf "  problem: the run of %s ended without a result\n" spec.Rig.name;
    (false, Rig.txns, Rig.txns, [])

let () =
  let o = parse Sys.argv in
  if o.manifest then begin
    print_endline
      (Json.to_string_pretty
         (Catalog.manifest ~workloads:(List.map (fun s -> (s.Rig.name, s.Rig.why)) Rig.specs)));
    exit 0
  end;
  let specs = specs o in
  if o.setup_only then begin
    List.iter
      (fun spec -> Printf.printf "%.17g\n" (Rig.setup spec ~seed:o.seed).Rig.setup_host_s)
      specs;
    exit 0
  end;
  match o.sweep with
  | Some n -> exit (if sweep specs ~first:o.seed n = 0 then 0 else 1)
  | None -> (
    match specs with
    | [ spec ] ->
      let ok, attempted, failed, metrics =
        if o.trace then traced spec ~seed:o.seed ~seconds:o.seconds
        else end_to_end spec ~seed:o.seed ~seconds:o.seconds
      in
      print_endline (result_line ~correct:ok ~attempted ~failed (List.map metric_json metrics))
    | specs ->
      (* Each workload runs in a fresh process, one after another, so that
         its host figures (peak heap, cold set-up) are its own, as in a run
         of it alone. *)
      let results = List.map (fun spec -> (spec.Rig.name, run_alone o spec)) specs in
      let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 results in
      print_endline
        (result_line
           ~correct:(List.for_all (fun (_, (c, _, _, _)) -> c) results)
           ~attempted:(sum (fun (_, a, _, _) -> a))
           ~failed:(sum (fun (_, _, f, _) -> f))
           (List.concat_map
              (fun (name, (_, _, _, m)) -> List.map (fun (k, v) -> (name ^ "/" ^ k, v)) m)
              results)))
