type t = {
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  vfs : Vfs.t;
  fd : Vfs.fd;
  stream_force_key : string option; (* "log.<tag>.force" of a tagged stream *)
  buf : Buffer.t; (* records appended since [flushed] *)
  mutable flushed : int; (* bytes durable on disk *)
  (* Every force, whoever triggers it, bumps the generation after the
     fsync. A committer joins a batch only while no force is in flight,
     so a generation move after it joined means a force that began after
     its record went in: the record is durable. *)
  mutable force_gen : int;
  gc : Groupcommit.t;
}

(* Incremental log scanning: records are streamed through a bounded
   window instead of slurping the whole file per call — [read_from] and
   [scan_end] used to read the entire log every time, which made replay
   after a long run O(log²) across the recovery loop. The window widens
   geometrically when a record straddles its end, so a scan reads each
   byte a bounded number of times. *)
let scan_chunk_bytes = 64 * 1024

let records ?stats vfs fd ~from =
  let size = vfs.Vfs.size fd in
  let fetch off want =
    let len = min want (size - off) in
    (match stats with
    | Some s ->
      Stats.add s "log.recovery_bytes_scanned" len;
      Stats.incr s "log.recovery_reads"
    | None -> ());
    (off, vfs.Vfs.read fd ~off ~len)
  in
  let rec step ~base ~buf off () =
    if off >= size then Seq.Nil
    else if off < base || off >= base + Bytes.length buf then
      let base, buf = fetch off scan_chunk_bytes in
      decode ~base ~buf off ()
    else decode ~base ~buf off ()
  and decode ~base ~buf off () =
    match Logrec.decode buf (off - base) with
    | Some (rec_, next) -> Seq.Cons ((off, rec_), step ~base ~buf (base + next))
    | None ->
      if base + Bytes.length buf >= size then Seq.Nil (* true end of log *)
      else
        (* The record may straddle the window: re-read from here with a
           wider one (doubling, so this terminates at EOF). *)
        let base, buf = fetch off (2 * (Bytes.length buf + scan_chunk_bytes)) in
        decode ~base ~buf off ()
  in
  step ~base:0 ~buf:Bytes.empty (max 0 from)

let scan_end ?stats vfs fd =
  Seq.fold_left
    (fun _ (off, rec_) -> off + Logrec.size rec_)
    0
    (records ?stats vfs fd ~from:0)

let open_log ?tag clock stats cfg vfs ~path =
  let fd =
    if vfs.Vfs.exists path then vfs.Vfs.open_file path
    else begin
      let fd = vfs.Vfs.create path in
      (* Creating the environment is a utility operation: make the log's
         directory entry durable so recovery can find it after a crash —
         fsync alone covers the file, not its name. *)
      vfs.Vfs.sync ();
      fd
    end
  in
  let tail = scan_end ~stats vfs fd in
  (* Drop any torn tail so new records append at a clean boundary. *)
  if tail < vfs.Vfs.size fd then vfs.Vfs.truncate fd tail;
  Stats.declare stats "log.force";
  let stream_force_key = Option.map (fun tag -> "log." ^ tag ^ ".force") tag in
  Option.iter (Stats.declare stats) stream_force_key;
  {
    clock;
    stats;
    cfg;
    vfs;
    fd;
    stream_force_key;
    buf = Buffer.create 4096;
    flushed = tail;
    force_gen = 0;
    gc = Groupcommit.create clock stats cfg ~prefix:"log";
  }

let flushed_lsn t = t.flushed
let next_lsn t = t.flushed + Buffer.length t.buf

let append t rec_ =
  Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Log_record;
  let lsn = next_lsn t in
  Buffer.add_bytes t.buf (Logrec.encode rec_);
  Stats.incr t.stats "log.appends";
  lsn

(* One force at a time (the rendezvous's flush exclusion): a second
   snapshot of the unflushed bytes taken while the first force is parked
   in its write/fsync would double-write them and double-advance
   [flushed]. A follower re-checks — the force may have covered it. *)
let do_force t =
  Groupcommit.flush t.gc
    ~ready:(fun () -> Buffer.length t.buf > 0)
    (fun () ->
      let t0 = Clock.now t.clock in
      let data = Buffer.to_bytes t.buf in
      t.vfs.Vfs.write t.fd ~off:t.flushed data;
      t.vfs.Vfs.fsync t.fd;
      t.flushed <- t.flushed + Bytes.length data;
      (* Records appended while we were parked in the write/fsync sit
         behind the snapshot: drop only the flushed prefix. *)
      let tail =
        Buffer.sub t.buf (Bytes.length data)
          (Buffer.length t.buf - Bytes.length data)
      in
      Buffer.clear t.buf;
      Buffer.add_string t.buf tail;
      Stats.incr t.stats "log.forces";
      Stats.observe t.stats "log.force" (Clock.now t.clock -. t0);
      (match t.stream_force_key with
      | Some key -> Stats.observe t.stats key (Clock.now t.clock -. t0)
      | None -> ());
      if Stats.tracing t.stats then
        Stats.emit t.stats ~time:(Clock.now t.clock) "log.force"
          [ ("bytes", Trace.I (Bytes.length data)); ("lsn", Trace.I t.flushed) ];
      t.force_gen <- t.force_gen + 1)

let rec force t ~upto =
  if upto >= t.flushed then begin
    do_force t;
    (* Our record may have been appended after an in-flight force's
       snapshot, in which case waiting it out left us undone: go again
       for the remainder. *)
    if upto >= t.flushed then force t ~upto
  end

let force_commit t ~upto =
  (* A force already in flight snapshotted the buffer before our record
     went in: wait it out and join the NEXT batch rather than chasing it
     with a batch of one — arrivals accumulate while the log arm is
     busy, which is what fills group-commit batches at high MPL. *)
  if upto >= t.flushed then Groupcommit.idle t.gc;
  if upto >= t.flushed then begin
    let gen = t.force_gen in
    Groupcommit.commit t.gc
      ~waiting:(fun () -> t.force_gen = gen)
      ~flush:(fun () -> do_force t)
  end

let read_from t lsn = records ~stats:t.stats t.vfs t.fd ~from:lsn

(* Under the flush exclusion: a force parked inside its write/fsync has
   already snapshotted the buffer and will advance [flushed] by the
   snapshot length when it resumes — truncating under it would reset
   [flushed] to 0 only to have the force march it past the now empty
   file — and no new force may start against the half-truncated file. *)
let truncate t =
  Groupcommit.exclusive t.gc (fun () ->
      if Buffer.length t.buf > 0 then
        invalid_arg "Logmgr.truncate: unflushed records";
      t.vfs.Vfs.truncate t.fd 0;
      t.vfs.Vfs.fsync t.fd;
      t.flushed <- 0);
  Stats.incr t.stats "log.truncations"
