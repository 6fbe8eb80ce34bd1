(* Every metric the benchmark reports: name, unit, better direction and
   (per layer) the end-to-end metric and workload it should move. This
   table is the one source of BENCHMARK.json ([manifest]). *)

type metric = {
  name : string;
  unit_ : string;
  higher_better : bool;
  bound : float;  (* end-to-end only: tolerated worsening, share of median *)
  layer : string;
  moves : string;  (* per-layer only: "metric on workload" it should move *)
}

let e2e name unit_ higher_better bound =
  { name; unit_; higher_better; bound; layer = "end-to-end"; moves = "" }

(* Simulated metrics repeat exactly per seed; their bounds cover the
   spread across seeds (under 4 % between quartiles). Allocation repeats
   too. Wall time carries the host's noise: set-up time gets the widest
   bound, and the window's wall time per transaction is reported with
   the per-layer numbers but not gated. *)
let end_to_end =
  [
    e2e "sim_tps" "1/s" true 0.05;
    e2e "commit_p50_s" "s" false 0.15;
    e2e "commit_p999_s" "s" false 0.15;
    e2e "txn_ok_frac" "1" true 0.05;
    e2e "setup_s" "s" false 0.25;
    e2e "setup_alloc_mw" "Mw" false 0.05;
    e2e "alloc_kw_per_txn" "kw" false 0.05;
    e2e "peak_heap_mb" "MB" false 0.1;
  ]

let kc = "tpcb-kernel-cleaning"
let ws = "tpcb-wal-streams"
let fs = "tpcb-ffs-single"

let pl layer name unit_ higher_better moves =
  { name; unit_; higher_better; bound = 0.0; layer; moves }

let per_layer =
  let disk_moves = Printf.sprintf "sim_tps, commit_p50_s on %s, %s" kc fs in
  let cache_moves = Printf.sprintf "commit_p50_s, workload.scan_s on %s, %s" kc fs in
  let lfs_moves = "sim_tps on " ^ kc in
  let wal_p50 = "commit_p50_s on " ^ ws in
  let wal_tps = "sim_tps on " ^ ws in
  let core_moves = "sim_tps, commit_p50_s on " ^ kc in
  let vfs_moves = Printf.sprintf "host_us_per_txn, commit_p50_s on %s, %s" fs ws in
  let setup_moves = Printf.sprintf "setup_s, setup_alloc_mw on %s, %s" kc fs in
  [
    pl "disk" "disk.busy_frac_max" "1" false disk_moves;
    pl "disk" "disk.seek_s_per_txn" "s" false disk_moves;
    pl "disk" "disk.read_qwait_mean_s" "s" false disk_moves;
    pl "disk" "disk.blocks_read_per_txn" "count" false disk_moves;
    pl "disk" "disk.blocks_written_per_txn" "count" false disk_moves;
    pl "disk" "disk.requests_per_txn" "count" false disk_moves;
    pl "disk" "disk.queue_depth_max" "count" false disk_moves;
    pl "disk" "disklog.busy_frac_max" "1" false wal_p50;
    pl "buf" "cache.hit_ratio" "1" true cache_moves;
    pl "buf" "cache.evict_dirty_per_txn" "count" false cache_moves;
    pl "lfs" "lfs.partials_per_txn" "count" false lfs_moves;
    pl "lfs" "lfs.blocks_logged_per_txn" "count" false lfs_moves;
    pl "lfs" "lfs.checkpoints" "count" false lfs_moves;
    pl "lfs" "lfs.checkpoint_p50_s" "s" false lfs_moves;
    pl "cleaner" "cleaner.stall_frac" "1" false ("commit_p999_s on " ^ kc);
    pl "cleaner" "cleaner.stall_p99_s" "s" false ("commit_p999_s on " ^ kc);
    pl "cleaner" "cleaner.busy_s" "s" false lfs_moves;
    pl "cleaner" "cleaner.segments_per_ktxn" "count" false lfs_moves;
    pl "cleaner" "cleaner.blocks_moved_per_txn" "count" false lfs_moves;
    pl "cleaner" "cleaner.write_cost_mean" "1" false lfs_moves;
    pl "ffs" "ffs.inplace_writes_per_txn" "count" false ("sim_tps on " ^ fs);
    pl "ffs" "ffs.syncer_runs" "count" false ("sim_tps on " ^ fs);
    pl "lock" "lock.acquires_per_txn" "count" false wal_p50;
    pl "lock" "lock.waits_per_txn" "count" false wal_p50;
    pl "lock" "lock.wait_s_per_txn" "s" false wal_p50;
    pl "lock" "lock.restarts_per_ktxn" "count" false wal_p50;
    pl "wal" "wal.forces_per_txn" "count" false wal_p50;
    pl "wal" "wal.commit_batch_mean" "count" true wal_p50;
    pl "wal" "wal.force_p50_s" "s" false wal_p50;
    pl "wal" "wal.group_commit_wait_s_per_txn" "s" false wal_p50;
    pl "wal" "wal.dep_checks_per_txn" "count" false wal_tps;
    pl "wal" "wal.dep_forces_per_txn" "count" false wal_tps;
    pl "wal" "wal.pool_writebacks_per_txn" "count" false wal_tps;
    pl "core" "ktxn.commit_batch_mean" "count" true core_moves;
    pl "core" "ktxn.group_flushes_per_txn" "count" false core_moves;
    pl "core" "ktxn.page_writes_per_txn" "count" false core_moves;
    pl "core" "ktxn.group_commit_wait_s_per_txn" "s" false core_moves;
    pl "sim" "cpu.busy_frac" "1" false wal_tps;
  ]
  @ List.map
      (fun c -> pl "sim" (Printf.sprintf "cpu.%s_s_per_txn" c) "s" false wal_tps)
      Layers.cpu_categories
  @ [
      pl "sim" "sched.starved_txns" "count" false "commit_p999_s on any MPL > 1 workload";
      pl "db" "db.record_ops_per_txn" "count" false "sim_tps on every workload";
      pl "db" "db.cursor_next_n" "count" false "workload.scan_s (scan phase)";
      pl "workload" "workload.scan_s" "s" false ("read penalty (Fig. 6) of layout changes on " ^ kc);
      pl "vfs" "vfs.read_n_per_txn" "count" false vfs_moves;
      pl "vfs" "vfs.write_n_per_txn" "count" false vfs_moves;
      pl "vfs" "vfs.fsync_n_per_txn" "count" false vfs_moves;
      pl "vfs" "vfs.sim_s_per_txn" "s" false vfs_moves;
      pl "vfs" "vfs.host_us_per_txn" "us" false vfs_moves;
      pl "host" "host_us_per_txn" "us" false "reported, not gated: wall time of the window";
      pl "phase" "phase.format_s" "s" false setup_moves;
      pl "phase" "phase.build_s" "s" false setup_moves;
      pl "phase" "phase.env_s" "s" false setup_moves;
      pl "phase" "phase.build_alloc_mw" "Mw" false setup_moves;
      pl "phase" "phase.recover_s" "s" false "reported, not gated";
      pl "phase" "recovery.sim_s" "s" false "reported, not gated";
      pl "trace" "trace.overhead_us_per_txn" "us" false "reported: traced minus untraced host_us_per_txn";
    ]

(* How long one run of a workload measures, in host seconds. *)
let run_seconds = 30

let better m = if m.higher_better then "higher" else "lower"

let manifest ~workloads =
  let metric m extra =
    Json.Obj
      ([ ("name", Json.Str m.name); ("unit", Json.Str m.unit_); ("better", Json.Str (better m)) ]
      @ extra)
  in
  Json.Obj
    [
      ("command", Json.List [ Json.Str "python3"; Json.Str "perfbench/run.py" ]);
      ("paths", Json.List [ Json.Str "perfbench" ]);
      ("run_seconds", Json.Int run_seconds);
      ( "workloads",
        Json.List
          (List.map
             (fun (name, why) -> Json.Obj [ ("name", Json.Str name); ("why", Json.Str why) ])
             workloads) );
      ( "end_to_end",
        Json.List (List.map (fun m -> metric m [ ("bound", Json.Float m.bound) ]) end_to_end) );
      ("per_layer", Json.List (List.map (fun m -> metric m []) per_layer));
    ]
