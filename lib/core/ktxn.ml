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
  gc : Groupcommit.t;
}

exception Conflict of int list
exception Deadlock_abort of int
exception Too_large

let create lfs =
  let clock = Lfs.clock lfs in
  let stats = Lfs.stats lfs in
  let cfg = Lfs.config lfs in
  {
    lfs;
    clock;
    stats;
    cfg;
    locks =
      Lockmgr.create ~escalation:cfg.Config.fs.lock_escalation ~name:"ktxn"
        clock stats cfg.Config.cpu;
    active_tbl = Hashtbl.create 16;
    next_id = 1;
    pending_commits = [];
    gc = Groupcommit.create clock stats cfg ~prefix:"ktxn";
  }

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
   sleeping (Section 4.2) until its wait edges clear, then retries.
   Outside any process it cannot wait: charge the switch and bounce the
   caller instead. *)
let lock_obj t txn obj mode =
  kmutex t;
  let rec go () =
    match Lockmgr.acquire t.locks ~txn:txn.id obj mode with
    | `Granted -> ()
    | `Would_block _ when Lockmgr.wait t.locks ~txn:txn.id -> go ()
    | `Would_block blockers ->
      Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Context_switch;
      raise (Conflict blockers)
    | `Deadlock ->
      do_abort t txn;
      raise (Deadlock_abort txn.id)
  in
  go ()

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
  Groupcommit.flush t.gc
    ~ready:(fun () -> t.pending_commits <> [])
    (fun () ->
      let pending = t.pending_commits in
      t.pending_commits <- [];
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
      if Stats.tracing t.stats then
        Stats.emit t.stats ~time:(Clock.now t.clock) "ktxn.group_flush"
          [ ("batch", Trace.I batch); ("frames", Trace.I (List.length frames)) ])

let flush_commits t = if t.pending_commits <> [] then flush_pending t

(* Section 4.4's rendezvous. A committer waits for its own transaction's
   release, not for the next flush: a flush already in flight when it
   enqueued ends without covering it. *)
let txn_commit t txn =
  check_live txn;
  syscall t;
  kmutex t;
  t.pending_commits <- (txn, txn.frames) :: t.pending_commits;
  txn.frames <- [];
  Stats.incr t.stats "ktxn.commits";
  Groupcommit.commit t.gc
    ~waiting:(fun () -> txn.live)
    ~flush:(fun () -> flush_pending t)

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
