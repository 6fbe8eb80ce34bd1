(* Per-layer numbers of the measured window, read from the machine's
   [Stats] when the window closes (every stat was zeroed as it opened)
   and from the benchmark's own VFS spans. Per-transaction figures are
   normalised by the window's committed transactions. *)

type window = {
  values : (string * float) list;
  checks : (string * bool * string) list;  (* name, passed, detail *)
}

(* Record operations in one TPC-B transaction: find + insert on the
   account, teller and branch B-trees, and one history append. *)
let record_ops_per_txn = 7

let cpu_categories =
  [
    "syscall";
    "user_mutex";
    "kernel_mutex";
    "copy_block";
    "record_op";
    "lock_op";
    "log_record";
    "context_switch";
  ]

let hsum stats key =
  match Stats.histo stats key with Some h -> Histo.sum h | None -> 0.0

let hcount stats key =
  match Stats.histo stats key with Some h -> Histo.count h | None -> 0

let hmean stats key =
  match Stats.histo stats key with
  | Some h when Histo.count h > 0 -> Histo.mean h
  | _ -> 0.0

let hpct stats key q =
  match Stats.histo stats key with
  | Some h when Histo.count h > 0 -> Histo.percentile h q
  | _ -> 0.0

let window stats ~disks ~mpl ~elapsed ~committed ~result ~latencies ~spans =
  let n = float_of_int committed in
  let per x = if committed > 0 then x /. n else 0.0 in
  let frac x = if elapsed > 0.0 then x /. elapsed else 0.0 in
  let count k = float_of_int (Stats.count stats k) in
  let time k = Stats.time stats k in
  let prefixes = List.map fst (Diskset.members disks) in
  let data = List.filter (fun p -> not (String.starts_with ~prefix:"disklog" p)) prefixes in
  let logs = List.filter (String.starts_with ~prefix:"disklog") prefixes in
  let sum ps f = List.fold_left (fun acc p -> acc +. f p) 0.0 ps in
  let maxf ps f = List.fold_left (fun acc p -> Float.max acc (f p)) 0.0 ps in
  let busy p = frac (time (p ^ ".busy")) in
  let qwait_n = sum data (fun p -> float_of_int (hcount stats (p ^ ".read.qwait"))) in
  let hits = count "cache.hits" and misses = count "cache.misses" in
  let cpu_total =
    List.fold_left
      (fun acc (k, v) ->
        match v with
        | `Seconds s when String.starts_with ~prefix:"cpu." k -> acc +. s
        | _ -> acc)
      0.0 (Stats.to_list stats)
  in
  let restarts = count "tpcb.restarts" +. count "txn.op_restarts" in
  let starved =
    match result with
    | Some _ ->
      Array.fold_left
        (fun acc l -> if l > elapsed /. 2.0 then acc + 1 else acc)
        0 latencies
    | None -> (
      (* Aborted window: count the histogram buckets that may lie above
         half the window. *)
      match Stats.histo stats "tpcb.txn" with
      | Some h ->
        List.fold_left
          (fun acc (`Le ub, c) -> if ub > elapsed /. 2.0 then acc + c else acc)
          0 (Histo.buckets h)
      | None -> 0)
  in
  (* VFS calls made inside the window, through the wrapped records. *)
  let window_span = Spans.find spans "window" in
  let vfs_spans =
    match window_span with
    | Some w ->
      List.filter (fun s -> Spans.is_vfs s && s.Spans.parent = w.Spans.id)
        (Spans.all spans)
    | None -> []
  in
  let vfs_n name =
    float_of_int (List.length (List.filter (fun s -> s.Spans.name = name) vfs_spans))
  in
  let vfs_sim = List.fold_left (fun acc s -> acc +. Spans.sim_s s) 0.0 vfs_spans in
  let vfs_host =
    Spans.coverage (List.map (fun s -> (s.Spans.host0, s.Spans.host1)) vfs_spans)
  in
  let values =
    [
      ("disk.busy_frac_max", maxf data busy);
      ( "disk.seek_s_per_txn",
        per (sum data (fun p -> hsum stats (p ^ ".seek") +. hsum stats (p ^ ".seek.queued"))) );
      ( "disk.read_qwait_mean_s",
        if qwait_n > 0.0 then sum data (fun p -> hsum stats (p ^ ".read.qwait")) /. qwait_n
        else 0.0 );
      ("disk.blocks_read_per_txn", per (sum data (fun p -> count (p ^ ".blocks_read"))));
      ("disk.blocks_written_per_txn", per (sum data (fun p -> count (p ^ ".blocks_written"))));
      ("disk.requests_per_txn", per (sum data (fun p -> count (p ^ ".requests"))));
      ("disk.queue_depth_max", maxf data (fun p -> Stats.max_of stats (p ^ ".queue.depth")));
      ("disklog.busy_frac_max", maxf logs busy);
      ("cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      ("cache.evict_dirty_per_txn", per (count "cache.evict_dirty"));
      ("lfs.partials_per_txn", per (count "lfs.partials"));
      ("lfs.blocks_logged_per_txn", per (count "lfs.blocks_logged"));
      ("lfs.checkpoints", count "lfs.checkpoints");
      ("lfs.checkpoint_p50_s", hpct stats "lfs.checkpoint" 0.5);
      ("cleaner.stall_frac", frac (time "cleaner.stall"));
      ("cleaner.stall_p99_s", hpct stats "cleaner.stall" 0.99);
      ("cleaner.busy_s", time "cleaner.busy");
      ("cleaner.segments_per_ktxn", 1000.0 *. per (count "cleaner.segments"));
      ("cleaner.blocks_moved_per_txn", per (count "cleaner.blocks_moved"));
      ("cleaner.write_cost_mean", hmean stats "cleaner.write_cost");
      ("ffs.inplace_writes_per_txn", per (count "ffs.inplace_writes"));
      ("ffs.syncer_runs", count "ffs.syncer_runs");
      ("lock.acquires_per_txn", per (count "lock.acquires"));
      ("lock.waits_per_txn", per (count "lock.waits"));
      ("lock.wait_s_per_txn", per (time "txn.lock_wait" +. time "ktxn.lock_wait"));
      ("lock.restarts_per_ktxn", 1000.0 *. per restarts);
      ("wal.forces_per_txn", per (count "log.forces"));
      ("wal.commit_batch_mean", hmean stats "log.commit_batch");
      ("wal.force_p50_s", hpct stats "log.force" 0.5);
      ("wal.group_commit_wait_s_per_txn", per (time "log.group_commit_wait"));
      ("wal.dep_checks_per_txn", per (count "log.dep_checks"));
      ("wal.dep_forces_per_txn", per (count "log.dep_forces"));
      ("wal.pool_writebacks_per_txn", per (count "pool.writebacks"));
      ("ktxn.commit_batch_mean", hmean stats "ktxn.commit_batch");
      ("ktxn.group_flushes_per_txn", per (count "ktxn.group_flushes"));
      ("ktxn.page_writes_per_txn", per (count "ktxn.page_writes"));
      ("ktxn.group_commit_wait_s_per_txn", per (time "ktxn.group_commit_wait"));
      ("cpu.busy_frac", frac cpu_total);
    ]
    @ List.map
        (fun c -> (Printf.sprintf "cpu.%s_s_per_txn" c, per (time ("cpu." ^ c))))
        cpu_categories
    @ [
        ("sched.starved_txns", float_of_int starved);
        ("db.record_ops_per_txn", per (count "cpu.record_op.n"));
        ("vfs.read_n_per_txn", per (vfs_n "read"));
        ("vfs.write_n_per_txn", per (vfs_n "write"));
        ("vfs.fsync_n_per_txn", per (vfs_n "fsync"));
        ("vfs.sim_s_per_txn", per vfs_sim);
        ("vfs.host_us_per_txn", 1e6 *. per vfs_host);
      ]
  in
  (* Window self-checks: the counters must describe exactly the window's
     transactions. *)
  let commits_check =
    match result with
    | Some m ->
      let c = m.Tpcb.base.Tpcb.txns in
      ( "window.commits",
        c = committed && Array.length latencies = c,
        Printf.sprintf "tpcb.commits %d, run_sched committed %d, latencies %d"
          committed c (Array.length latencies) )
    | None ->
      (* An aborted window returns no committed count to compare against. *)
      ("window.commits", true, "window aborted: not checked")
  in
  let ops = Stats.count stats "cpu.record_op.n" in
  let lo = record_ops_per_txn * committed in
  let hi =
    lo + (record_ops_per_txn * Stats.count stats "tpcb.restarts")
    + Stats.count stats "txn.op_restarts"
    (* an aborted window also abandons up to [mpl] partial transactions *)
    + if result = None then record_ops_per_txn * mpl else 0
  in
  let ops_check =
    ( "window.record_ops",
      ops >= lo && ops <= hi,
      Printf.sprintf "cpu.record_op.n %d, expected %d..%d (%d per txn + restarts)"
        ops lo hi record_ops_per_txn )
  in
  { values; checks = [ commits_check; ops_check ] }
