type txn = {
  id : int;
  mutable frames : Cache.frame list; (* this transaction's dirty buffers *)
  mutable live : bool;
}

type t = {
  lfs : Lfs.t;
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  locks : Lockmgr.t; (* the lock table hanging off the file-system state *)
  active_tbl : (int, txn) Hashtbl.t;
  mutable next_id : int;
  mutable pending_commits : (txn * Cache.frame list) list; (* group commit *)
  (* Scheduler-mode state. [parked]: processes blocked in [lock], keyed
     by txn id, woken by the lock manager's waker. [flush_gen] /
     [commit_cond]: the group-commit rendezvous — committers park until
     the generation moves past the one they joined; every flush bumps it
     after the frames are durable. *)
  parked : (int, Sched.cond) Hashtbl.t;
  mutable flush_gen : int;
  (* [Lfs.force_frames] parks in disk I/O under the scheduler, so a
     flush is not atomic: [flushing] is the mutex bit that keeps a
     second flush (size trigger or timeout daemon) from running under
     the first, and each flush claims its batch out of
     [pending_commits] before yielding. *)
  mutable flushing : bool;
  commit_cond : Sched.cond;
}

exception Conflict of int list
exception Deadlock_abort of int
exception Too_large

let create lfs =
  let clock = Lfs.clock lfs in
  let stats = Lfs.stats lfs in
  let cfg = Lfs.config lfs in
  (* Group-commit histograms exist even in runs that never defer. *)
  Stats.declare stats "ktxn.commit_batch";
  Stats.declare stats "ktxn.group_commit_wait";
  let t =
    {
      lfs;
      clock;
      stats;
      cfg;
      locks =
        Lockmgr.create ~escalation:cfg.Config.fs.lock_escalation clock stats
          cfg.Config.cpu;
      active_tbl = Hashtbl.create 16;
      next_id = 1;
      pending_commits = [];
      parked = Hashtbl.create 8;
      flush_gen = 0;
      flushing = false;
      commit_cond = Sched.condition ();
    }
  in
  Lockmgr.set_waker t.locks
    (Some
       (fun txnid ->
         match Hashtbl.find_opt t.parked txnid with
         | Some c -> (
           match Sched.of_clock clock with
           | Some sched -> Sched.broadcast sched c
           | None -> ())
         | None -> ()));
  t

let lfs t = t.lfs
let locks t = t.locks
let txn_id txn = txn.id
let active t = Hashtbl.length t.active_tbl

let syscall t = Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Syscall
let kmutex t = Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Kernel_mutex

let protect t path =
  let v = Lfs.vfs t.lfs in
  v.Vfs.set_protected path true

let unprotect t path =
  let v = Lfs.vfs t.lfs in
  v.Vfs.set_protected path false

let txn_begin t =
  syscall t;
  kmutex t;
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn = { id; frames = []; live = true } in
  Hashtbl.replace t.active_tbl id txn;
  Stats.incr t.stats "ktxn.begins";
  txn

let check_live txn =
  if not txn.live then invalid_arg "Ktxn: transaction already finished"

let release t txn =
  Lockmgr.release_all t.locks ~txn:txn.id;
  Hashtbl.remove t.active_tbl txn.id;
  txn.live <- false

let do_abort t txn =
  let cache = Lfs.cache t.lfs in
  List.iter
    (fun f ->
      Cache.set_txn cache f (-1);
      (* Dropping the buffer exposes the on-disk before-image — no log
         needed, courtesy of the no-overwrite policy. *)
      Cache.invalidate cache f)
    txn.frames;
  txn.frames <- [];
  release t txn;
  Stats.incr t.stats "ktxn.aborts"

(* Under the scheduler the process really is descheduled and left
   sleeping (Section 4.2): park until the lock manager's waker reports
   our wait edges cleared, then retry the acquire. *)
let rec block_lock t sched txn obj mode =
  Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Context_switch;
  Stats.incr t.stats "ktxn.lock_blocks";
  let c = Sched.condition () in
  Hashtbl.replace t.parked txn.id c;
  let t0 = Clock.now t.clock in
  Sched.wait sched c;
  Hashtbl.remove t.parked txn.id;
  let dt = Clock.now t.clock -. t0 in
  Stats.add_time t.stats "ktxn.lock_wait" dt;
  Stats.observe t.stats "ktxn.lock_wait" dt;
  match Lockmgr.acquire t.locks ~txn:txn.id obj mode with
  | `Granted -> ()
  | `Would_block _ -> block_lock t sched txn obj mode
  | `Deadlock ->
    do_abort t txn;
    raise (Deadlock_abort txn.id)

let lock_obj t txn obj mode =
  kmutex t;
  match Lockmgr.acquire t.locks ~txn:txn.id obj mode with
  | `Granted -> ()
  | `Would_block blockers -> (
    match Sched.of_clock t.clock with
    | Some sched when Sched.in_process sched ->
      block_lock t sched txn obj mode
    | _ ->
      (* The process would be descheduled and left sleeping
         (Section 4.2); at MPL 1 we charge the switch and bounce the
         caller instead. *)
      Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Context_switch;
      raise (Conflict blockers))
  | `Deadlock ->
    do_abort t txn;
    raise (Deadlock_abort txn.id)

let lock t txn ~inum ~page mode = lock_obj t txn (Lockmgr.Page (inum, page)) mode

let read_page t txn ~inum ~page =
  check_live txn;
  syscall t;
  if Lfs.is_protected t.lfs inum then
    lock t txn ~inum ~page Lockmgr.Shared;
  let f = Lfs.get_page t.lfs ~inum ~lblock:page in
  f.Cache.data

let write_page t txn ~inum ~page data =
  check_live txn;
  syscall t;
  let protected_ = Lfs.is_protected t.lfs inum in
  if protected_ then lock t txn ~inum ~page Lockmgr.Exclusive;
  let cache = Lfs.cache t.lfs in
  let f =
    try Lfs.get_page t.lfs ~inum ~lblock:page
    with Cache.Cache_full -> raise Too_large
  in
  Bytes.blit data 0 f.Cache.data 0 (Bytes.length data);
  Lfs.page_dirty t.lfs f;
  Lfs.extend_to t.lfs ~inum ((page + 1) * Bytes.length data);
  if protected_ && f.Cache.txn <> txn.id then begin
    Cache.set_txn cache f txn.id;
    txn.frames <- f :: txn.frames
  end;
  Stats.incr t.stats "ktxn.page_writes"

let flush_pending t =
  (* Wait out an in-flight flush first: it already claimed its batch,
     and running under it would re-release (without forcing) whatever
     committers enqueued while it was parked in the disk I/O. *)
  (match Sched.of_clock t.clock with
  | Some sched when Sched.in_process sched ->
    while t.flushing do
      Sched.wait sched t.commit_cond
    done
  | _ -> ());
  if t.pending_commits <> [] then begin
    (* Claim the batch before the first yield: committers arriving
       during [Lfs.force_frames] belong to the NEXT flush. *)
    let pending = t.pending_commits in
    t.pending_commits <- [];
    t.flushing <- true;
    Fun.protect
      ~finally:(fun () ->
        t.flushing <- false;
        (* Release committers parked at the rendezvous — each re-checks
           whether its own transaction was in the flushed batch. *)
        t.flush_gen <- t.flush_gen + 1;
        match Sched.of_clock t.clock with
        | Some sched -> Sched.broadcast sched t.commit_cond
        | None -> ())
      (fun () ->
        let cache = Lfs.cache t.lfs in
        let batch = List.length pending in
        let all_frames =
          List.concat_map
            (fun (_, frames) ->
              List.iter (fun f -> Cache.set_txn cache f (-1)) frames;
              frames)
            pending
        in
        (* Frames may have been superseded if two pending transactions
           touched the same page; de-duplicate while preserving order. *)
        let seen = Hashtbl.create 16 in
        let frames =
          List.filter
            (fun (f : Cache.frame) ->
              let k = (f.Cache.file, f.Cache.lblock) in
              if Hashtbl.mem seen k then false
              else begin
                Hashtbl.add seen k ();
                f.Cache.resident && f.Cache.dirty
              end)
            all_frames
        in
        Lfs.force_frames t.lfs frames;
        List.iter (fun (txn, _) -> release t txn) pending;
        Stats.incr t.stats "ktxn.group_flushes";
        Stats.observe t.stats "ktxn.commit_batch" (float_of_int batch);
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "ktxn.group_flush"
            [ ("batch", Trace.I batch); ("frames", Trace.I (List.length frames)) ])
  end

let flush_commits t = if t.pending_commits <> [] then flush_pending t

let txn_commit t txn =
  check_live txn;
  syscall t;
  kmutex t;
  let was_empty = t.pending_commits = [] in
  t.pending_commits <- (txn, txn.frames) :: t.pending_commits;
  txn.frames <- [];
  Stats.incr t.stats "ktxn.commits";
  let timeout = t.cfg.Config.fs.group_commit_timeout_s in
  if
    timeout <= 0.0
    || List.length t.pending_commits >= t.cfg.Config.fs.group_commit_size
  then flush_pending t
  else
    match Sched.of_clock t.clock with
    | Some sched when Sched.in_process sched ->
      (* Real rendezvous (Section 4.4): park until the batch fills — a
         later committer's inline flush — or this batch's timeout
         process fires. The first committer arms the timeout. Waking is
         keyed on our own transaction's release, not the flush
         generation: a flush that was already in flight when we
         enqueued bumps the generation without covering us. *)
      if was_empty then
        Sched.spawn ~daemon:true sched (fun () ->
            Sched.delay sched timeout;
            if txn.live then flush_pending t);
      let t0 = Clock.now t.clock in
      while txn.live do
        Sched.wait sched t.commit_cond
      done;
      let waited = Clock.now t.clock -. t0 in
      Stats.add_time t.stats "ktxn.group_commit_wait" waited;
      Stats.observe t.stats "ktxn.group_commit_wait" waited
    | _ ->
      (* Outside any process nobody can join the batch: wait out the
         timeout (Section 4.4) and flush, so the commit is durable when
         it returns — the same rule as [Logmgr.force_commit]. *)
      Clock.advance t.clock timeout;
      Stats.add_time t.stats "ktxn.group_commit_wait" timeout;
      Stats.observe t.stats "ktxn.group_commit_wait" timeout;
      flush_pending t

let txn_abort t txn =
  check_live txn;
  syscall t;
  kmutex t;
  do_abort t txn

(* The kernel pager keeps page-exclusive writes even at record grain:
   abort works by invalidating this transaction's dirty frames (the
   no-overwrite policy exposes the before-image), which cannot tolerate
   two transactions sharing one dirty frame, and group commit forces
   whole frames. Record grain therefore only adds shared record locks
   (with their intention-mode ancestors) on the read path; the physical
   page locks taken by [get]/[put] already serialize structure changes,
   so the latch hooks stay no-ops. *)
let pager t txn ~inum =
  let base =
    Pager.nohooks
      ~page_size:(Lfs.vfs t.lfs).Vfs.block_size
      (fun page -> read_page t txn ~inum ~page)
      (fun page data -> write_page t txn ~inum ~page data)
  in
  if t.cfg.Config.fs.lock_grain = `Page then base
  else
    {
      base with
      Pager.record_grain = true;
      lock_rec =
        (fun ~page ~recno ~write ->
          if (not write) && Lfs.is_protected t.lfs inum then
            lock_obj t txn (Lockmgr.Rec (inum, page, recno)) Lockmgr.Shared);
    }
