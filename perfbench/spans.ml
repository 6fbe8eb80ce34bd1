(* Benchmark-side spans on two clocks.

   A span covers one call the benchmark makes into a layer: a phase call
   (format, build, the measured window, recovery, scan, ...) or one call
   through the wrapped [Vfs.t]. It records its start and end on the host
   clock (wall seconds) and on the machine's simulated clock, plus words
   allocated, the simulated fiber it ran on and the span that caused it.
   Spans stay in memory; [write_chrome] writes them out when the run
   ends, in Chrome trace-event JSON. *)

type span = {
  id : int;
  parent : int;  (* 0: top level *)
  name : string;
  cat : string;  (* "phase", "vfs.data" or "vfs.log" *)
  tid : int;  (* simulated fiber id; 0 outside any fiber *)
  host0 : float;
  sim0 : float;
  alloc0 : float;
  mutable host1 : float;
  mutable sim1 : float;
  mutable alloc1 : float;
  mutable failed : bool;
}

(* VFS calls of a phase that keeps no span per call: count and summed
   durations per "category.operation". *)
type tally = { mutable n : int; mutable host : float; mutable sim : float }

type t = {
  clock : Clock.t;
  origin : float;  (* host time the recorder was created *)
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable phase : int;  (* the open phase span: parent of VFS spans *)
  mutable detail : bool;  (* one span per VFS call, else [tallies] *)
  tallies : (string, tally) Hashtbl.t;
}

let now () = Unix.gettimeofday ()

let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let create clock =
  {
    clock;
    origin = now ();
    spans = [];
    next_id = 1;
    phase = 0;
    detail = true;
    tallies = Hashtbl.create 16;
  }

let fiber clock =
  match Sched.of_clock clock with
  | Some s when Sched.in_process s -> Sched.self s
  | _ -> 0

let open_span r ~cat ~parent name =
  let s =
    {
      id = r.next_id;
      parent;
      name;
      cat;
      tid = fiber r.clock;
      host0 = now ();
      sim0 = Clock.now r.clock;
      alloc0 = (if cat = "phase" then words () else 0.0);
      host1 = nan;
      sim1 = nan;
      alloc1 = 0.0;
      failed = false;
    }
  in
  r.next_id <- r.next_id + 1;
  r.spans <- s :: r.spans;
  s

let close_span s r =
  s.host1 <- now ();
  s.sim1 <- Clock.now r.clock;
  if s.cat = "phase" then s.alloc1 <- words ()

(* Run [f] as a phase span. The span is closed (and marked failed) if
   [f] raises; the exception propagates. With [~detail:false] the phase's
   VFS calls are tallied instead of kept one span each (the database
   build makes about a million of them). *)
let phase ?(detail = true) r name f =
  let s = open_span r ~cat:"phase" ~parent:0 name in
  let outer = r.phase and outer_detail = r.detail in
  r.phase <- s.id;
  r.detail <- detail;
  let finish () =
    close_span s r;
    r.phase <- outer;
    r.detail <- outer_detail
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    s.failed <- true;
    finish ();
    raise e

let host_s s = s.host1 -. s.host0
let sim_s s = s.sim1 -. s.sim0
let alloc_w s = s.alloc1 -. s.alloc0

let find r name = List.find_opt (fun s -> s.name = name) r.spans

(* Every span whose call returned or raised, oldest first. A fiber
   abandoned when the window raises leaves its VFS span open. *)
let all r = List.rev (List.filter (fun s -> not (Float.is_nan s.host1)) r.spans)

(* Wrapped VFS ------------------------------------------------------------- *)

(* Every operation of [v] becomes a span under the open phase. A call
   that parks its fiber (a queued disk read, a log force) keeps its span
   open while other fibers run, so a span's duration is the latency its
   caller saw, on both clocks. *)
let wrap_vfs r ~role (v : Vfs.t) : Vfs.t =
  let cat = "vfs." ^ role in
  let tally name h0 s0 =
    let key = cat ^ "." ^ name in
    let t =
      match Hashtbl.find_opt r.tallies key with
      | Some t -> t
      | None ->
        let t = { n = 0; host = 0.0; sim = 0.0 } in
        Hashtbl.add r.tallies key t;
        t
    in
    t.n <- t.n + 1;
    t.host <- t.host +. (now () -. h0);
    t.sim <- t.sim +. (Clock.now r.clock -. s0)
  in
  let call name f =
    if r.detail then begin
      let s = open_span r ~cat ~parent:r.phase name in
      match f () with
      | x ->
        close_span s r;
        x
      | exception e ->
        s.failed <- true;
        close_span s r;
        raise e
    end
    else begin
      let h0 = now () and s0 = Clock.now r.clock in
      Fun.protect ~finally:(fun () -> tally name h0 s0) f
    end
  in
  {
    v with
    Vfs.create = (fun p -> call "create" (fun () -> v.Vfs.create p));
    open_file = (fun p -> call "open" (fun () -> v.Vfs.open_file p));
    read = (fun fd ~off ~len -> call "read" (fun () -> v.Vfs.read fd ~off ~len));
    write = (fun fd ~off b -> call "write" (fun () -> v.Vfs.write fd ~off b));
    truncate = (fun fd n -> call "truncate" (fun () -> v.Vfs.truncate fd n));
    size = (fun fd -> call "size" (fun () -> v.Vfs.size fd));
    fsync = (fun fd -> call "fsync" (fun () -> v.Vfs.fsync fd));
    sync = (fun () -> call "sync" (fun () -> v.Vfs.sync ()));
    remove = (fun p -> call "remove" (fun () -> v.Vfs.remove p));
    mkdir = (fun p -> call "mkdir" (fun () -> v.Vfs.mkdir p));
    readdir = (fun p -> call "readdir" (fun () -> v.Vfs.readdir p));
    exists = (fun p -> call "exists" (fun () -> v.Vfs.exists p));
    stat = (fun p -> call "stat" (fun () -> v.Vfs.stat p));
    set_protected =
      (fun p b -> call "set_protected" (fun () -> v.Vfs.set_protected p b));
  }

let is_vfs s = String.starts_with ~prefix:"vfs." s.cat

(* Length of the union of intervals (start, stop). *)
let coverage intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of a span on each clock: its duration minus the part of
   that interval its child spans cover. *)
let self_times r s =
  let kids = List.filter (fun c -> c.parent = s.id) (all r) in
  let host = coverage (List.map (fun c -> (c.host0, c.host1)) kids) in
  let sim = coverage (List.map (fun c -> (c.sim0, c.sim1)) kids) in
  (host_s s -. host, sim_s s -. sim)

(* Chrome trace-event JSON ------------------------------------------------- *)

(* Process 1 shows every span on the host clock, process 2 on the
   simulated clock together with the machine's own trace-ring events
   from the measured window. Timestamps are microseconds. *)
let write_chrome path r ~meta ~ring =
  let oc = open_out path in
  let first = ref true in
  let item s =
    if !first then first := false else output_string oc ",\n";
    output_string oc s
  in
  let esc s = Json.to_string (Json.Str s) in
  output_string oc "{\"traceEvents\":[\n";
  List.iter
    (fun (pid, label) ->
      item
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":%s}}"
           pid (esc label)))
    [ (1, "host clock"); (2, "simulated clock") ];
  List.iter
    (fun s ->
      let ev pid ts dur =
        item
          (Printf.sprintf
             "{\"ph\":\"X\",\"name\":%s,\"cat\":%s,\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"failed\":%b}}"
             (esc s.name) (esc s.cat) pid s.tid ts dur s.id s.parent s.failed)
      in
      ev 1 (1e6 *. (s.host0 -. r.origin)) (1e6 *. host_s s);
      ev 2 (1e6 *. s.sim0) (1e6 *. sim_s s))
    (all r);
  (match ring with
  | None -> ()
  | Some tr ->
    Trace.iter tr (fun e ->
        let args =
          Json.Obj
            (List.map
               (fun (k, v) ->
                 ( k,
                   match v with
                   | Trace.B b -> Json.Bool b
                   | Trace.I i -> Json.Int i
                   | Trace.F f -> Json.Float f
                   | Trace.S s -> Json.Str s ))
               e.Trace.attrs)
        in
        item
          (Printf.sprintf
             "{\"ph\":\"i\",\"s\":\"t\",\"name\":%s,\"cat\":\"ring\",\"pid\":2,\"tid\":0,\"ts\":%.3f,\"args\":%s}"
             (esc e.Trace.name) (1e6 *. e.Trace.t) (Json.to_string args))));
  let tallies =
    Hashtbl.fold
      (fun k t acc ->
        ( k,
          Json.Obj
            [ ("n", Json.Int t.n); ("host_s", Json.Float t.host); ("sim_s", Json.Float t.sim) ] )
        :: acc)
      r.tallies []
  in
  output_string oc "\n],\"displayTimeUnit\":\"ms\",\"otherData\":";
  output_string oc
    (Json.to_string
       (Json.Obj [ ("run", meta); ("tallied_vfs_calls", Json.Obj (List.sort compare tallies)) ]));
  output_string oc "}\n";
  close_out oc
