exception Injected_crash

type injector = {
  on_write : blkno:int -> nblocks:int -> int;
  on_read : blkno:int -> nblocks:int -> bool;
}

(* A read parked in the live request queue, waiting for the server
   process to reach it. The rule that keeps queued reads honest: a
   write persists its bytes when it is ISSUED, and only then waits for
   the arm and pays its service time; a queued read captures the platter
   when the server reaches it. So every read issued after a write
   returns that write's bytes, whichever of the two gets the arm first.
   It must: a writer may park in [wait_device] while the server owns
   the arm and serves a read queued at the same address, and LFS points
   an inode at a block's new address before the segment write is
   issued, so a reader cannot tell an old image from the current one.
   [persist] is a single atomic blit with no yield inside, so a capture
   never observes a torn run. *)
type pending = {
  p_blkno : int;
  p_nblocks : int;
  mutable p_data : bytes;
  p_submitted : float;
  mutable p_done : bool;
  p_cond : Sched.cond;
}

(* Stat keys, precomputed from the prefix at create time so multi-disk
   machines report per-spindle counters ("disk0.busy", "disklog.seek",
   ...) without per-op string building. The default prefix "disk" keeps
   every single-disk name bit-for-bit identical to before. *)
type keys = {
  k_busy : string;
  k_seek : string;
  k_seek_queued : string;
  k_seeks : string;
  k_requests : string;
  k_blocks_written : string;
  k_blocks_read : string;
  k_read_service : string;
  k_write_service : string;
  k_rotation : string;
  k_transfer : string;
  k_read_qwait : string;
  k_read_retries : string;
  k_queue_enqueued : string;
  k_queue_depth : string;
  k_op : string;
}

let make_keys pfx =
  {
    k_busy = pfx ^ ".busy";
    k_seek = pfx ^ ".seek";
    k_seek_queued = pfx ^ ".seek.queued";
    k_seeks = pfx ^ ".seeks";
    k_requests = pfx ^ ".requests";
    k_blocks_written = pfx ^ ".blocks_written";
    k_blocks_read = pfx ^ ".blocks_read";
    k_read_service = pfx ^ ".read.service";
    k_write_service = pfx ^ ".write.service";
    k_rotation = pfx ^ ".rotation";
    k_transfer = pfx ^ ".transfer";
    k_read_qwait = pfx ^ ".read.qwait";
    k_read_retries = pfx ^ ".read_retries";
    k_queue_enqueued = pfx ^ ".queue.enqueued";
    k_queue_depth = pfx ^ ".queue.depth";
    k_op = pfx ^ ".op";
  }

type t = {
  data : bytes;
  cfg : Config.disk;
  clock : Clock.t;
  stats : Stats.t;
  keys : keys;
  mutable head : int;
  mutable injector : injector option;
  mutable queue : pending list;
  mutable serving : bool;
  mutable busy_until : float;
      (* device occupancy horizon under the discrete-event scheduler:
         a request issued from a process waits until the arm is free.
         Meaningless (always in the past) outside any process. *)
}

let create ?(prefix = "disk") clock stats (cfg : Config.disk) =
  if cfg.nblocks <= 0 || cfg.block_size <= 0 then
    invalid_arg "Disk.create: bad geometry";
  let keys = make_keys prefix in
  (* Per-op latency histograms exist from boot so every benchmark
     artifact carries them, samples or not. *)
  List.iter (Stats.declare stats)
    [
      keys.k_read_service;
      keys.k_write_service;
      keys.k_seek;
      keys.k_seek_queued;
      keys.k_rotation;
      keys.k_transfer;
      keys.k_read_qwait;
    ];
  {
    data = Bytes.make (cfg.nblocks * cfg.block_size) '\000';
    cfg;
    clock;
    stats;
    keys;
    head = 0;
    injector = None;
    queue = [];
    serving = false;
    busy_until = 0.0;
  }

let set_injector t inj = t.injector <- inj

let nblocks t = t.cfg.nblocks
let block_size t = t.cfg.block_size

let check_range t blkno n =
  if blkno < 0 || n < 0 || blkno + n > t.cfg.nblocks then
    invalid_arg
      (Printf.sprintf "Disk: blocks [%d..%d) out of range [0..%d)" blkno
         (blkno + n) t.cfg.nblocks)

let cylinder t blkno = blkno / t.cfg.blocks_per_cylinder

let ncylinders t =
  (t.cfg.nblocks + t.cfg.blocks_per_cylinder - 1) / t.cfg.blocks_per_cylinder

let seek_time t ~from ~target =
  let d = abs (cylinder t target - cylinder t from) in
  if d = 0 then 0.0
  else
    let c = max 2 (ncylinders t) in
    let frac = sqrt (float_of_int (d - 1)) /. sqrt (float_of_int (c - 1)) in
    t.cfg.min_seek_s +. ((t.cfg.max_seek_s -. t.cfg.min_seek_s) *. frac)

let rotation_time t = 0.5 *. (60.0 /. t.cfg.rpm)

let transfer_time t nblocks =
  float_of_int (nblocks * t.cfg.block_size) /. t.cfg.transfer_bytes_per_s

(* Rotational delay of a request at [blkno] after a seek of [seek]: a
   request that continues exactly where the head stopped streams with
   no positioning cost at all (the common case for log/segment writes);
   a queued one pays a discounted rotation (its seek is discounted
   too). *)
let rotation t blkno ~seek ~queued =
  if queued then 0.75 *. rotation_time t
  else if seek = 0.0 && blkno = t.head then 0.0
  else rotation_time t

let service_time t blkno ~nblocks =
  let seek = seek_time t ~from:t.head ~target:blkno in
  seek +. rotation t blkno ~seek ~queued:false +. transfer_time t nblocks

(* Block the calling process until the arm is free. Loop: several
   waiters can wake at the same horizon and only the first to run gets
   the device (it pushes [busy_until] out again). *)
let wait_device t sched =
  while t.busy_until > Clock.now t.clock do
    Sched.sleep_until sched t.busy_until
  done

(* One request's service, shared by the synchronous path and the queue
   server: position, transfer, hold the arm for the total, account it,
   and leave the head past the run. Under a scheduler the caller already
   waited for the arm; outside one the clock just jumps. *)
let service t sched blkno ~nblocks ~write ~queued =
  let seek = seek_time t ~from:t.head ~target:blkno in
  let seek_c = if queued then 0.3 *. seek else seek in
  let rot_c = rotation t blkno ~seek ~queued in
  let xfer = transfer_time t nblocks in
  let dt = seek_c +. rot_c +. xfer in
  (match sched with
  | Some s ->
    t.busy_until <- Clock.now t.clock +. dt;
    Sched.delay s dt
  | None -> Clock.advance t.clock dt);
  Stats.add_time t.stats t.keys.k_busy dt;
  Stats.add_time t.stats t.keys.k_seek seek_c;
  (* Count the seek actually charged: a queued request pays a discounted
     seek, so the counter condition must test [seek_c], and its samples
     go to their own histogram so the elevator's benefit stays visible
     next to the cold-seek distribution. *)
  if seek_c > 0.0 then Stats.incr t.stats t.keys.k_seeks;
  Stats.incr t.stats t.keys.k_requests;
  Stats.add t.stats
    (if write then t.keys.k_blocks_written else t.keys.k_blocks_read)
    nblocks;
  Stats.observe t.stats
    (if write then t.keys.k_write_service else t.keys.k_read_service)
    dt;
  Stats.observe t.stats
    (if queued then t.keys.k_seek_queued else t.keys.k_seek)
    seek_c;
  Stats.observe t.stats t.keys.k_rotation rot_c;
  Stats.observe t.stats t.keys.k_transfer xfer;
  t.head <- blkno + nblocks;
  dt

let serve ?(queued = false) t blkno ~nblocks ~write =
  check_range t blkno nblocks;
  (* Under the discrete-event scheduler each spindle is a real shared
     resource: a synchronous request issued from a process waits for the
     arm, then holds it for its service time while other processes (on
     other spindles) keep running. Positioning costs are computed only
     after the wait — the head may have moved while we queued. *)
  let sched = Sched.current t.clock in
  (match sched with Some s -> wait_device t s | None -> ());
  let dt = service t sched blkno ~nblocks ~write ~queued in
  if Stats.tracing t.stats then
    Stats.emit t.stats ~time:(Clock.now t.clock) t.keys.k_op
      [
        ("rw", Trace.S (if write then "w" else "r"));
        ("blkno", Trace.I blkno);
        ("nblocks", Trace.I nblocks);
        ("queued", Trace.B queued);
        ("service_s", Trace.F dt);
      ]

(* A transient read error costs a full revolution (the sector comes
   around again) and a retry. The injector promises eventual success, so
   the caller never sees the failure — only the clock and stats do. *)
let retry_reads t blkno n =
  match t.injector with
  | None -> ()
  | Some inj ->
    while inj.on_read ~blkno ~nblocks:n do
      Clock.advance t.clock (2.0 *. rotation_time t);
      Stats.add_time t.stats t.keys.k_busy (2.0 *. rotation_time t);
      Stats.incr t.stats t.keys.k_read_retries
    done

let read_run t blkno n =
  serve t blkno ~nblocks:n ~write:false;
  retry_reads t blkno n;
  Bytes.sub t.data (blkno * t.cfg.block_size) (n * t.cfg.block_size)

let read t blkno = read_run t blkno 1

(* Persist [data] at [blkno] as the write is issued (see [pending]),
   honouring the injector: only the first [keep] blocks reach the
   platter, and if the injector truncated or ended the run it also
   kills the machine — the write never returns.
   Power failure is modelled at sector granularity: individual blocks
   are atomic, multi-block runs tear on a block boundary. *)
let persist t blkno data =
  let bs = t.cfg.block_size in
  let n = Bytes.length data / bs in
  match t.injector with
  | None -> Bytes.blit data 0 t.data (blkno * bs) (Bytes.length data)
  | Some inj ->
    let keep = inj.on_write ~blkno ~nblocks:n in
    let keep = max 0 (min keep n) in
    Bytes.blit data 0 t.data (blkno * bs) (keep * bs);
    if keep < n then raise Injected_crash

let write_blocks ?queued t blkno data =
  let bs = t.cfg.block_size in
  let len = Bytes.length data in
  if len = 0 || len mod bs <> 0 then
    invalid_arg "Disk.write: data must be a positive whole number of blocks";
  let n = len / bs in
  check_range t blkno n;
  persist t blkno data;
  serve ?queued t blkno ~nblocks:n ~write:true

let write t blkno data =
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.write: data must be exactly one block";
  write_blocks t blkno data

let write_queued t blkno data =
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.write_queued: data must be exactly one block";
  write_blocks ~queued:true t blkno data

let write_run t blkno data = write_blocks t blkno data

(* The disk server process: as long as requests are queued, pick the
   next one by C-LOOK from the *live* head position, hold the device for
   its service time (other processes run meanwhile), then wake the
   submitter. Positioning costs use the same arithmetic as the
   synchronous path — the elevator's benefit under load comes from the
   ordering itself shortening seeks, not from a modelled discount. *)
let rec serve_queue t sched =
  match t.queue with
  | [] -> t.serving <- false
  | _ ->
    (* Respect the occupancy horizon a synchronous request may have set,
       and pick only after the wait — the queue and head position can
       both change while the daemon is parked. *)
    wait_device t sched;
    (match t.queue with
     | [] -> t.serving <- false
     | reqs ->
    let pick =
      match
        Elevator.order Elevator.Elevator ~head:t.head
          (List.map (fun r -> (r.p_blkno, r)) reqs)
      with
      | (_, r) :: _ -> r
      | [] -> assert false
    in
    t.queue <- List.filter (fun r -> r != pick) t.queue;
    let dt =
      service t (Some sched) pick.p_blkno ~nblocks:pick.p_nblocks ~write:false
        ~queued:false
    in
    retry_reads t pick.p_blkno pick.p_nblocks;
    pick.p_data <-
      Bytes.sub t.data
        (pick.p_blkno * t.cfg.block_size)
        (pick.p_nblocks * t.cfg.block_size);
    Stats.observe t.stats t.keys.k_read_qwait
      (Clock.now t.clock -. pick.p_submitted);
    if Stats.tracing t.stats then
      Stats.emit t.stats ~time:(Clock.now t.clock) t.keys.k_op
        [
          ("rw", Trace.S "r");
          ("blkno", Trace.I pick.p_blkno);
          ("nblocks", Trace.I pick.p_nblocks);
          ("queued", Trace.B true);
          ("service_s", Trace.F dt);
          ("qdepth", Trace.I (List.length t.queue));
        ];
    pick.p_done <- true;
    Sched.broadcast sched pick.p_cond;
    serve_queue t sched)

let read_async t blkno =
  match Sched.current t.clock with
  | Some sched ->
    check_range t blkno 1;
    let p =
      {
        p_blkno = blkno;
        p_nblocks = 1;
        p_data = Bytes.empty;  (* captured at service time; see [pending] *)
        p_submitted = Clock.now t.clock;
        p_done = false;
        p_cond = Sched.condition ();
      }
    in
    t.queue <- t.queue @ [ p ];
    Stats.incr t.stats t.keys.k_queue_enqueued;
    Stats.record_max t.stats t.keys.k_queue_depth
      (float_of_int (List.length t.queue + if t.serving then 1 else 0));
    if not t.serving then begin
      t.serving <- true;
      Sched.spawn ~daemon:true sched (fun () -> serve_queue t sched)
    end;
    while not p.p_done do
      Sched.wait sched p.p_cond
    done;
    p.p_data
  | _ -> read t blkno

let head t = t.head

(* Outstanding requests at this spindle: the elevator queue plus the one
   the server process is currently positioning for. The synchronous
   read/write paths never enqueue, so a non-zero depth means scheduler
   processes are actively waiting on this arm. *)
let queue_depth t = List.length t.queue + if t.serving then 1 else 0

let peek t blkno =
  check_range t blkno 1;
  Bytes.sub t.data (blkno * t.cfg.block_size) t.cfg.block_size

let poke t blkno data =
  check_range t blkno 1;
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.poke: data must be exactly one block";
  Bytes.blit data 0 t.data (blkno * t.cfg.block_size) t.cfg.block_size
