type t = {
  clock : Clock.t;
  stats : Stats.t;
  fs : Config.fs;
  wait_key : string;
  batch_key : string;
  (* Flush waiters and parked committers share this mutex's release:
     separate conditions would reorder same-time wakeups. *)
  lock : Sched.Mutex.t;
  mutable pending : int; (* committers joined since the last claim *)
}

let create clock stats (cfg : Config.t) ~prefix =
  let t =
    {
      clock;
      stats;
      fs = cfg.Config.fs;
      wait_key = prefix ^ ".group_commit_wait";
      batch_key = prefix ^ ".commit_batch";
      lock = Sched.Mutex.create clock;
      pending = 0;
    }
  in
  (* Every artifact carries both histograms, even with no samples. *)
  Stats.declare stats t.batch_key;
  Stats.declare stats t.wait_key;
  t

let idle t = Sched.Mutex.await t.lock
let exclusive t f = Sched.Mutex.protect t.lock f

let flush t ~ready body =
  Sched.Mutex.await t.lock;
  if ready () then begin
    let batch = t.pending in
    t.pending <- 0;
    Sched.Mutex.protect t.lock body;
    if batch > 0 then Stats.observe t.stats t.batch_key (float_of_int batch)
  end

let record t waited =
  Stats.add_time t.stats t.wait_key waited;
  Stats.observe t.stats t.wait_key waited

let commit t ~waiting ~flush =
  t.pending <- t.pending + 1;
  let timeout = t.fs.Config.group_commit_timeout_s in
  if timeout <= 0.0 || t.pending >= t.fs.Config.group_commit_size then flush ()
  else
    match Sched.current t.clock with
    | Some sched ->
      let t0 = Clock.now t.clock in
      if t.pending = 1 then
        Sched.spawn ~daemon:true sched (fun () ->
            Sched.delay sched timeout;
            if waiting () then flush ());
      while waiting () do
        Sched.Mutex.wait_release t.lock
      done;
      record t (Clock.now t.clock -. t0)
    | None ->
      (* Nobody can join: wait out the timeout, then flush. *)
      Clock.advance t.clock timeout;
      record t timeout;
      flush ()
