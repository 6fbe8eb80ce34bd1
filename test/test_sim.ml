(* Unit and property tests for the simulation core: clock, stats, cost
   model, RNG and binary encoding. *)

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 1.5;
  Clock.advance c 0.25;
  Alcotest.(check (float 1e-9)) "accumulates" 1.75 (Clock.now c);
  Clock.sleep_until c 1.0;
  Alcotest.(check (float 1e-9)) "sleep into the past is a no-op" 1.75
    (Clock.now c);
  Clock.sleep_until c 3.0;
  Alcotest.(check (float 1e-9)) "sleep into the future" 3.0 (Clock.now c)

let test_clock_rejects_bad_delta () =
  let c = Clock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: bad delta -1")
    (fun () -> Clock.advance c (-1.0));
  (match Clock.advance c Float.nan with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "nan delta accepted")

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.add s "a" 4;
  Stats.add_time s "t" 0.5;
  Stats.add_time s "t" 0.25;
  Alcotest.(check int) "count" 5 (Stats.count s "a");
  Alcotest.(check (float 1e-9)) "time" 0.75 (Stats.time s "t");
  Alcotest.(check int) "missing count is 0" 0 (Stats.count s "nope");
  Stats.record_max s "m" 2.0;
  Stats.record_max s "m" 1.0;
  Alcotest.(check (float 1e-9)) "max keeps larger" 2.0 (Stats.max_of s "m");
  (* Maxima live in their own table: a cumulative time under the same key
     must not be polluted by (or pollute) the recorded maximum. *)
  Stats.add_time s "m" 0.125;
  Alcotest.(check (float 1e-9)) "max unaffected by add_time" 2.0
    (Stats.max_of s "m");
  Alcotest.(check (float 1e-9)) "time unaffected by record_max" 0.125
    (Stats.time s "m");
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.count s "a")

(* Histograms --------------------------------------------------------------- *)

let test_histo_basics () =
  let h = Histo.create () in
  Alcotest.(check int) "empty count" 0 (Histo.count h);
  Histo.add h 0.037;
  Alcotest.(check int) "count" 1 (Histo.count h);
  Alcotest.(check (float 1e-12)) "min" 0.037 (Histo.min_value h);
  Alcotest.(check (float 1e-12)) "max" 0.037 (Histo.max_value h);
  Alcotest.(check (float 1e-12)) "mean" 0.037 (Histo.mean h);
  (* Any percentile of a single sample is that sample (clamped to the
     exact tracked min/max, not the bucket bound). *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%.0f" p)
        0.037 (Histo.percentile h p))
    [ 0.0; 0.50; 0.95; 0.99; 1.0 ]

let test_histo_percentiles () =
  let h = Histo.create () in
  for _ = 1 to 90 do Histo.add h 0.001 done;
  for _ = 1 to 10 do Histo.add h 1.0 done;
  Alcotest.(check int) "count" 100 (Histo.count h);
  Alcotest.(check bool) "p50 in the low mode" true (Histo.percentile h 0.50 < 0.002);
  Alcotest.(check (float 1e-12)) "p99 is the high mode" 1.0 (Histo.percentile h 0.99);
  Alcotest.(check (float 1e-12)) "p100 = max" 1.0 (Histo.percentile h 1.0);
  (* Percentiles are monotone in p. *)
  let ps = [ 0.01; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99; 1.0 ] in
  let vs = List.map (Histo.percentile h) ps in
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "monotone" true (v >= prev);
         v)
       0.0 vs);
  (* Bucket counts account for every sample. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Histo.buckets h) in
  Alcotest.(check int) "buckets sum to count" 100 total

let test_histo_outliers_and_merge () =
  let h = Histo.create () in
  Histo.add h (-1.0);
  (* invalid: dropped from the distribution, counted separately *)
  Histo.add h 1e9;
  (* overflow bucket *)
  Alcotest.(check int) "only the valid sample counted" 1 (Histo.count h);
  Alcotest.(check int) "negative counted as invalid" 1 (Histo.invalid h);
  Alcotest.(check (float 0.0)) "min is the valid sample" 1e9 (Histo.min_value h);
  Alcotest.(check (float 0.0)) "max exact" 1e9 (Histo.max_value h);
  let dst = Histo.create () in
  Histo.add dst 0.5;
  Histo.merge_into ~src:h ~dst;
  Alcotest.(check int) "merged count" 2 (Histo.count dst);
  Alcotest.(check int) "merged invalid" 1 (Histo.invalid dst);
  Alcotest.(check (float 0.0)) "merged max" 1e9 (Histo.max_value dst)

(* Regression: a stream polluted with NaN and negative samples used to be
   coerced to 0.0, inflating the first bucket and dragging every
   percentile toward zero. Now the distribution reflects only the valid
   samples and the pollution is tallied in [invalid] (and, through
   [Stats.observe], in the "histo.invalid" counter). *)
let test_histo_nan_stream () =
  let h = Histo.create () in
  for _ = 1 to 50 do
    Histo.add h Float.nan;
    Histo.add h (-0.5);
    Histo.add h Float.neg_infinity;
    Histo.add h 1.0
  done;
  Alcotest.(check int) "valid samples" 50 (Histo.count h);
  Alcotest.(check int) "invalid samples" 150 (Histo.invalid h);
  Alcotest.(check (float 1e-12)) "p50 undisturbed" 1.0 (Histo.percentile h 0.50);
  Alcotest.(check (float 1e-12)) "min undisturbed" 1.0 (Histo.min_value h);
  Alcotest.(check (float 1e-12)) "mean undisturbed" 1.0 (Histo.mean h);
  (* Every bucketed sample is a valid one. *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Histo.buckets h) in
  Alcotest.(check int) "buckets hold only valid samples" 50 total;
  (* The stats layer surfaces the same tally as a counter. *)
  let stats = Stats.create () in
  Stats.observe stats "lat" Float.nan;
  Stats.observe stats "lat" 0.25;
  Alcotest.(check int) "histo.invalid counter" 1 (Stats.count stats "histo.invalid");
  match Stats.histo stats "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "stats histo count" 1 (Histo.count h);
    Alcotest.(check int) "stats histo invalid" 1 (Histo.invalid h)

let prop_histo_percentile_bounded =
  Tutil.qtest "percentiles stay within [min, max]"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 100.0))
    (fun xs ->
      let h = Histo.create () in
      List.iter (Histo.add h) xs;
      List.for_all
        (fun p ->
          let v = Histo.percentile h p in
          v >= Histo.min_value h && v <= Histo.max_value h)
        [ 0.0; 0.10; 0.50; 0.90; 0.99; 1.0 ])

(* Discrete-event scheduler ------------------------------------------------- *)

let test_sched_ordering () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let log = ref [] in
  let emit tag = log := (tag, Clock.now clock) :: !log in
  Sched.spawn sched (fun () ->
      emit "a0";
      Sched.delay sched 2.0;
      emit "a2");
  Sched.spawn sched (fun () ->
      emit "b0";
      Sched.delay sched 1.0;
      emit "b1");
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list (pair string (float 1e-9))))
    "time order; spawn order at t=0"
    [ ("a0", 0.0); ("b0", 0.0); ("b1", 1.0); ("a2", 2.0) ]
    (List.rev !log)

let test_sched_deterministic_ties () =
  (* Same-time events run in scheduling order, so a whole run replays
     identically. *)
  let one_run () =
    let clock = Clock.create () in
    let sched = Sched.create clock in
    let log = ref [] in
    for i = 1 to 5 do
      Sched.spawn sched (fun () ->
          Sched.delay sched 1.0;
          (* all five land at t=1.0 *)
          log := i :: !log;
          Sched.yield sched;
          log := (10 * i) :: !log)
    done;
    Sched.run sched;
    Sched.detach sched;
    List.rev !log
  in
  let a = one_run () in
  Alcotest.(check (list int))
    "ties break by schedule order" [ 1; 2; 3; 4; 5; 10; 20; 30; 40; 50 ] a;
  Alcotest.(check (list int)) "replay is identical" a (one_run ())

let test_sched_condition_fifo () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let cond = Sched.condition () in
  let order = ref [] in
  for i = 1 to 3 do
    Sched.spawn sched (fun () ->
        Sched.wait sched cond;
        order := i :: !order)
  done;
  Sched.spawn sched (fun () ->
      Sched.delay sched 1.0;
      Sched.signal sched cond;
      (* remaining two wake together *)
      Sched.broadcast sched cond);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3 ] (List.rev !order)

let test_sched_stalled_and_daemons () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let cond = Sched.condition () in
  Sched.spawn sched (fun () -> Sched.wait sched cond);
  Alcotest.check_raises "waiter with no signaller" (Sched.Stalled 1) (fun () ->
      Sched.run sched);
  Sched.detach sched;
  (* A daemon alone does not keep the scheduler alive. *)
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let ticks = ref 0 in
  Sched.spawn ~daemon:true sched (fun () ->
      while true do
        Sched.delay sched 1.0;
        incr ticks
      done);
  Sched.spawn sched (fun () -> Sched.delay sched 2.5);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check int) "daemon ran while foreground lived" 2 !ticks

(* Regression: under a scheduler, [Clock.sleep_until] must yield even
   when the deadline is already past — otherwise a same-time waiter
   (e.g. a group-commit timeout process) can be starved by a
   zero-length sleep. Without a scheduler it stays a no-op jump. *)
let test_sched_sleep_until_past_still_yields () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let log = ref [] in
  Sched.spawn sched (fun () ->
      Clock.advance clock 5.0;
      Clock.sleep_until clock 1.0;
      (* already past *)
      log := "sleeper" :: !log);
  Sched.spawn sched (fun () -> log := "other" :: !log);
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check (float 1e-9)) "time kept" 5.0 (Clock.now clock);
  Alcotest.(check (list string))
    "the other process ran before the sleeper resumed" [ "other"; "sleeper" ]
    (List.rev !log)

let test_sched_registry () =
  let c1 = Clock.create () and c2 = Clock.create () in
  let s1 = Sched.create c1 in
  Alcotest.(check bool) "found" true
    (match Sched.of_clock c1 with Some s -> s == s1 | None -> false);
  Alcotest.(check bool) "other clock unclaimed" true (Sched.of_clock c2 = None);
  Alcotest.(check bool) "outside any process" false (Sched.in_process s1);
  Sched.detach s1;
  Alcotest.(check bool) "detached" true (Sched.of_clock c1 = None)

(* Three processes contend for one mutex, arriving in the order 3, 1, 2
   while each holds it for a second: at most one is ever inside, and the
   mutex passes in arrival order. *)
let test_sched_mutex_fifo () =
  let clock = Clock.create () in
  let sched = Sched.create clock in
  let m = Sched.Mutex.create clock in
  let inside = ref 0 and most = ref 0 and order = ref [] in
  List.iter
    (fun (id, arrive) ->
      Sched.spawn sched (fun () ->
          Sched.delay sched arrive;
          Sched.Mutex.protect m (fun () ->
              incr inside;
              most := max !most !inside;
              order := id :: !order;
              Sched.delay sched 1.0;
              decr inside)))
    [ (1, 0.1); (2, 0.2); (3, 0.0) ];
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check int) "mutual exclusion" 1 !most;
  Alcotest.(check (list int)) "FIFO hand-over" [ 3; 1; 2 ] (List.rev !order);
  Alcotest.(check (float 1e-9)) "three back-to-back holds" 3.0 (Clock.now clock)

let group_cfg ~size ~timeout =
  {
    Config.default with
    fs =
      {
        Config.default.fs with
        group_commit_size = size;
        group_commit_timeout_s = timeout;
      };
  }

let histo_count stats key =
  match Stats.histo stats key with Some h -> Histo.count h | None -> -1

(* A committer's flush: every joined commit becomes durable after 10 ms
   of simulated I/O (only a process can park in it). *)
let batch_flush gc clock ~pending ~durable ~flushes () =
  Groupcommit.flush gc
    ~ready:(fun () -> !pending <> [])
    (fun () ->
      let batch = !pending in
      pending := [];
      (match Sched.current clock with
      | Some sched -> Sched.delay sched 0.01
      | None -> ());
      durable := batch @ !durable;
      incr flushes)

let test_groupcommit_outside_process () =
  let clock = Clock.create () and stats = Stats.create () in
  let gc =
    Groupcommit.create clock stats (group_cfg ~size:8 ~timeout:0.02)
      ~prefix:"t"
  in
  let pending = ref [ 1 ] and durable = ref [] and flushes = ref 0 in
  Groupcommit.commit gc
    ~waiting:(fun () -> not (List.mem 1 !durable))
    ~flush:(batch_flush gc clock ~pending ~durable ~flushes);
  Alcotest.(check (float 1e-12)) "clock moved by the timeout" 0.02
    (Clock.now clock);
  Alcotest.(check (float 1e-12)) "wait recorded" 0.02
    (Stats.time stats "t.group_commit_wait");
  Alcotest.(check int) "one wait sample" 1
    (histo_count stats "t.group_commit_wait");
  Alcotest.(check int) "flushed once" 1 !flushes;
  Alcotest.(check (list int)) "durable on return" [ 1 ] !durable;
  Alcotest.(check int) "batch of one" 1 (histo_count stats "t.commit_batch")

let test_groupcommit_full_batch () =
  let clock = Clock.create () and stats = Stats.create () in
  let sched = Sched.create clock in
  let gc =
    Groupcommit.create clock stats (group_cfg ~size:3 ~timeout:1.0)
      ~prefix:"t"
  in
  let pending = ref [] and durable = ref [] and flushes = ref 0 in
  let returned = ref [] in
  for id = 1 to 3 do
    Sched.spawn sched (fun () ->
        Sched.delay sched (0.001 *. float_of_int id);
        pending := id :: !pending;
        Groupcommit.commit gc
          ~waiting:(fun () -> not (List.mem id !durable))
          ~flush:(batch_flush gc clock ~pending ~durable ~flushes);
        Alcotest.(check bool) "durable on return" true (List.mem id !durable);
        returned := id :: !returned)
  done;
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check int) "one flush" 1 !flushes;
  Alcotest.(check (list int)) "every committer woke" [ 1; 2; 3 ]
    (List.sort compare !returned);
  Alcotest.(check (float 1e-12)) "no timeout: done after the flush" 0.013
    (Clock.now clock);
  (match Stats.histo stats "t.commit_batch" with
  | Some h ->
    Alcotest.(check int) "one batch" 1 (Histo.count h);
    Alcotest.(check (float 0.0)) "of three" 3.0 (Histo.sum h)
  | None -> Alcotest.fail "no batch histogram");
  Alcotest.(check int) "the two parked committers' waits" 2
    (histo_count stats "t.group_commit_wait")

(* JSON --------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "x\"y\\z\n");
        ("n", Json.Int (-42));
        ("f", Json.Float 3.25);
        ("tiny", Json.Float 1.25e-7);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Str "two"; Json.Float 0.5 ]);
        ("empty", Json.Obj []);
      ]
  in
  (match Json.of_string_opt (Json.to_string v) with
  | Some v' -> Alcotest.(check bool) "compact round-trip" true (v = v')
  | None -> Alcotest.fail "reparse failed");
  match Json.of_string_opt (Json.to_string_pretty v) with
  | Some v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | None -> Alcotest.fail "pretty reparse failed"

let test_json_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" s)
        true
        (Json.of_string_opt s = None))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{} trailing" ]

let test_json_member () =
  let v = Json.Obj [ ("a", Json.Int 1); ("b", Json.Obj [ ("c", Json.Str "x") ]) ] in
  Alcotest.(check bool) "member" true (Json.member "a" v = Some (Json.Int 1));
  Alcotest.(check bool) "missing" true (Json.member "z" v = None);
  Alcotest.(check bool) "nested" true
    (match Json.member "b" v with
    | Some b -> Json.member "c" b = Some (Json.Str "x")
    | None -> false)

(* Event trace -------------------------------------------------------------- *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.emit tr ~t:(float_of_int i) "ev" [ ("i", Trace.I i) ]
  done;
  Alcotest.(check int) "bounded" 4 (Trace.length tr);
  Alcotest.(check int) "dropped" 2 (Trace.dropped tr);
  (* Oldest two fell off; the survivors are in order. *)
  let ts = List.map (fun e -> e.Trace.t) (Trace.to_list tr) in
  Alcotest.(check (list (float 0.0))) "oldest first" [ 3.0; 4.0; 5.0; 6.0 ] ts;
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr)

let test_trace_jsonl_roundtrip () =
  let e =
    {
      Trace.t = 1.5;
      name = "disk.op";
      attrs =
        [
          ("rw", Trace.S "w");
          ("blkno", Trace.I 17);
          ("queued", Trace.B false);
          ("service_s", Trace.F 0.012);
        ];
    }
  in
  let line = Trace.to_json_line e in
  Alcotest.(check bool) "single line" true (not (String.contains line '\n'));
  (match Trace.of_json_line line with
  | Some e' ->
    Alcotest.(check (float 0.0)) "t" e.Trace.t e'.Trace.t;
    Alcotest.(check string) "name" e.Trace.name e'.Trace.name;
    Alcotest.(check bool) "attrs" true (e.Trace.attrs = e'.Trace.attrs)
  | None -> Alcotest.fail "reparse failed");
  Alcotest.(check bool) "garbage rejected" true (Trace.of_json_line "{oops" = None)

let test_stats_to_json () =
  let s = Stats.create () in
  Stats.incr s "ops";
  Stats.add_time s "busy" 0.5;
  Stats.record_max s "peak" 2.0;
  Stats.observe s "lat" 0.01;
  let j = Stats.to_json s in
  let field k = match Json.member k j with Some v -> v | None -> Json.Null in
  Alcotest.(check bool) "counters" true
    (Json.member "ops" (field "counters") = Some (Json.Int 1));
  Alcotest.(check bool) "times" true
    (Json.member "busy" (field "times_s") = Some (Json.Float 0.5));
  Alcotest.(check bool) "maxes" true
    (Json.member "peak" (field "maxes_s") = Some (Json.Float 2.0));
  match Json.member "lat" (field "histograms") with
  | Some h ->
    Alcotest.(check bool) "histogram count" true
      (Json.member "count" h = Some (Json.Int 1));
    List.iter
      (fun k ->
        Alcotest.(check bool) (k ^ " present") true (Json.member k h <> None))
      [ "p50"; "p95"; "p99"; "max"; "buckets" ]
  | None -> Alcotest.fail "histogram missing from json"

let test_cpu_charges () =
  let cfg = Config.default.Config.cpu in
  let clock = Clock.create () in
  let stats = Stats.create () in
  Cpu.charge clock stats cfg Cpu.Syscall;
  Alcotest.(check (float 1e-12)) "syscall advances clock" cfg.Config.syscall_s
    (Clock.now clock);
  Alcotest.(check int) "recorded" 1 (Stats.count stats "cpu.syscall.n")

let test_user_mutex_cost () =
  let cpu = Config.default.Config.cpu in
  let without = Cpu.cost cpu Cpu.User_mutex in
  let with_tas = Cpu.cost { cpu with Config.has_test_and_set = true } Cpu.User_mutex in
  Alcotest.(check (float 1e-12)) "no TAS: two syscalls"
    (2.0 *. cpu.Config.syscall_s) without;
  Alcotest.(check bool) "TAS much cheaper" true (with_tas < without /. 10.0)

let test_config_scaled () =
  let c = Config.scaled ~factor:0.5 Config.default in
  Alcotest.(check int) "disk halved" (Config.default.Config.disk.nblocks / 2)
    c.Config.disk.nblocks;
  Alcotest.(check int) "cache halved" (Config.default.Config.fs.cache_blocks / 2)
    c.Config.fs.cache_blocks;
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Config.scaled: factor must be in (0, 1]") (fun () ->
      ignore (Config.scaled ~factor:0.0 Config.default))

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys;
  let c = Rng.create ~seed:43 in
  let zs = List.init 100 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_shuffle_is_permutation () =
  let r = Rng.create ~seed:7 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_enc_fixed_width () =
  let b = Bytes.make 64 '\000' in
  Enc.set_u8 b 0 0xab;
  Enc.set_u16 b 1 0xbeef;
  Enc.set_u32 b 3 0xdeadbeef;
  Enc.set_i64 b 7 (-123456789L);
  Enc.set_f64 b 15 3.14159;
  Alcotest.(check int) "u8" 0xab (Enc.get_u8 b 0);
  Alcotest.(check int) "u16" 0xbeef (Enc.get_u16 b 1);
  Alcotest.(check int) "u32" 0xdeadbeef (Enc.get_u32 b 3);
  Alcotest.(check int64) "i64" (-123456789L) (Enc.get_i64 b 7);
  Alcotest.(check (float 0.0)) "f64" 3.14159 (Enc.get_f64 b 15)

let test_enc_u32_range () =
  let b = Bytes.make 8 '\000' in
  Alcotest.(check bool) "max u32 fits" true
    (Enc.set_u32 b 0 0xffffffff;
     Enc.get_u32 b 0 = 0xffffffff);
  (match Enc.set_u32 b 0 (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative accepted")

let prop_lstring_roundtrip =
  Tutil.qtest "lstring round-trip" QCheck2.Gen.(string_size (int_bound 300))
    (fun s ->
      let b = Bytes.make (Enc.lstring_size s + 8) '\000' in
      let stop = Enc.set_lstring b 4 s in
      let s', stop' = Enc.get_lstring b 4 in
      s = s' && stop = stop')

let prop_u32_roundtrip =
  Tutil.qtest "u32 round-trip" QCheck2.Gen.(int_bound 0xffffffff) (fun v ->
      let b = Bytes.make 4 '\000' in
      Enc.set_u32 b 0 v;
      Enc.get_u32 b 0 = v)

let () =
  Alcotest.run "tx_sim"
    [
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock_basics;
          Alcotest.test_case "bad delta" `Quick test_clock_rejects_bad_delta;
        ] );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats;
                  Alcotest.test_case "to_json" `Quick test_stats_to_json ]);
      ( "histo",
        [
          Alcotest.test_case "basics" `Quick test_histo_basics;
          Alcotest.test_case "percentiles" `Quick test_histo_percentiles;
          Alcotest.test_case "outliers/merge" `Quick test_histo_outliers_and_merge;
          Alcotest.test_case "nan stream dropped" `Quick test_histo_nan_stream;
          prop_histo_percentile_bounded;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "member" `Quick test_json_member;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring" `Quick test_trace_ring;
          Alcotest.test_case "jsonl roundtrip" `Quick test_trace_jsonl_roundtrip;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "charges" `Quick test_cpu_charges;
          Alcotest.test_case "user mutex" `Quick test_user_mutex_cost;
        ] );
      ("config", [ Alcotest.test_case "scaled" `Quick test_config_scaled ]);
      ( "sched",
        [
          Alcotest.test_case "ordering" `Quick test_sched_ordering;
          Alcotest.test_case "deterministic ties" `Quick
            test_sched_deterministic_ties;
          Alcotest.test_case "condition fifo" `Quick test_sched_condition_fifo;
          Alcotest.test_case "stalled / daemons" `Quick
            test_sched_stalled_and_daemons;
          Alcotest.test_case "sleep into the past yields" `Quick
            test_sched_sleep_until_past_still_yields;
          Alcotest.test_case "registry" `Quick test_sched_registry;
          Alcotest.test_case "mutex fifo" `Quick test_sched_mutex_fifo;
        ] );
      ( "groupcommit",
        [
          Alcotest.test_case "outside any process" `Quick
            test_groupcommit_outside_process;
          Alcotest.test_case "full batch" `Quick test_groupcommit_full_batch;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_is_permutation;
        ] );
      ( "enc",
        [
          Alcotest.test_case "fixed width" `Quick test_enc_fixed_width;
          Alcotest.test_case "u32 range" `Quick test_enc_u32_range;
          prop_lstring_roundtrip;
          prop_u32_roundtrip;
        ] );
    ]
