(* The benchmark's three TPC-B workloads, and one round of a workload:
   boot a machine from the program's public functions, set it up, run
   the measured window, then crash, recover, check and scan it. Every
   phase call is a span (see [Spans]); the window's per-layer numbers are
   read from the machine's [Stats] by [Layers] at the window's edges. *)

type kind = Kernel_lfs | User_lfs | User_ffs

type spec = {
  name : string;
  why : string;
  kind : kind;
  config : Config.t;
  scale : Tpcb.scale;
  mpl : int;
}

(* LIBTP buffer pool of the user setups, in pages. *)
let pool_pages = 1024

let kind_label = function
  | Kernel_lfs -> "lfs-kernel"
  | User_lfs -> "lfs-user"
  | User_ffs -> "ffs-user"

(* Tellers and branches spread over many pages, as in the MPL sweep: the
   official TPC-B ratios put each relation on one page, and page locks
   would then serialize every MPL above 1. *)
let spread ~accounts ~tps =
  { Tpcb.accounts; tellers = 200 * tps; branches = 200 * tps }

(* The scale-1 machine: 30 MB disk, 1.6 MB buffer cache. *)
let scale1 = Config.scaled ~factor:0.1 Config.default

(* The scale-1 machine with the cleaner daemon's load-adaptive idle
   clean-ahead turned off: the cleaner runs only when free segments fall
   below low water, as before the adaptive daemon. With the daemon on,
   this workload fails some seeds with a read of a stale or wrong page
   (see [known_defects]). *)
let scale1_demand_cleaner =
  { scale1 with Config.fs = { scale1.Config.fs with Config.cleaner_adaptive = false } }

(* The scale-2 machine with the log sweep's headline placement: two
   striped data disks, four WAL streams each on its own spindle, record
   locks, group commit of 8 or 20 ms. *)
let scale2_streams =
  let c = Config.scaled ~factor:0.2 Config.default in
  {
    c with
    Config.fs =
      {
        c.Config.fs with
        Config.ndisks = 2;
        log_disk = true;
        log_streams = 4;
        lock_grain = `Record;
        group_commit_size = 8;
        group_commit_timeout_s = 0.02;
      };
  }

(* Transactions requested per window: at least 10 000 must commit for
   p99.9 to have 10 samples beyond it. *)
let txns = 15_000

let specs =
  [
    {
      name = "tpcb-kernel-cleaning";
      why =
        "embedded txn manager on LFS, database far larger than the cache \
         on a nearly full disk: segment writer, on-demand cleaner, group \
         commit and disk do the work";
      kind = Kernel_lfs;
      config = scale1_demand_cleaner;
      scale = spread ~accounts:100_000 ~tps:1;
      mpl = 8;
    };
    {
      name = "tpcb-wal-streams";
      why =
        "LIBTP on LFS with a pool-resident database and 4 WAL streams on \
         their own spindles: WAL, record locks, scheduler and CPU model do \
         the work";
      kind = User_lfs;
      config = scale2_streams;
      scale = spread ~accounts:4_000 ~tps:2;
      mpl = 16;
    };
    {
      name = "tpcb-ffs-single";
      why =
        "LIBTP on the read-optimized FFS at MPL 1 (Figure 4's baseline): \
         the control for LFS and cleaner changes, runs no LFS code";
      kind = User_ffs;
      config = scale1;
      scale = spread ~accounts:100_000 ~tps:1;
      mpl = 1;
    };
  ]

(* Configurations that a known defect makes fail on some seeds. They are
   not benchmark workloads (a workload must not fail), but [--workload]
   and [--sweep] still run them, so the failure rate stays measurable
   until the defect is fixed and the configuration joins [specs]. *)
let known_defects =
  [
    {
      (List.hd specs) with
      name = "tpcb-kernel-adaptive";
      why =
        "tpcb-kernel-cleaning with the default load-adaptive cleaner \
         daemon: some seeds read a stale or wrong page in the window";
      config = scale1;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) (specs @ known_defects)

(* Result of one round ------------------------------------------------------ *)

type round = {
  seed : int;
  requested : int;
  acked : int;  (* commits acknowledged to the workers in the window *)
  durable : int;  (* acknowledged and found durable after recovery *)
  run_error : string option;  (* exception that ended the window early *)
  failures : string list;  (* failed recovery, consistency or durability *)
  window_sim_s : float;
  p50_s : float;
  p999_s : float;
  scan_s : float;
  setup_host_s : float;
  setup_alloc_w : float;
  db_bytes : int;
  window_host_s : float;
  window_alloc_w : float;
  layers : Layers.window;
  scan_cursor_next : int;
  spans : Spans.t;
  ring : Trace.t option;
}

(* Nearest-rank percentile of a sorted array. *)
let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* A machine set up and ready for its measured window. *)
type machine = {
  spec : spec;
  seed : int;
  traced : bool;  (* VFS wrapped and the stats trace ring attached *)
  clock : Clock.t;
  stats : Stats.t;
  sp : Spans.t;
  disks : Diskset.t;
  sched : Sched.t;
  rng : Rng.t;
  db : Tpcb.db;
  backend : Tpcb.backend;
  crash : unit -> unit;
  remount : unit -> Vfs.t * Ffs.t array;  (* data VFS, log file systems *)
  open_env : Vfs.t -> Ffs.t array -> Libtp.t;
  setup_host_s : float;
  setup_alloc_w : float;
  db_bytes : int;  (* the four relations' file sizes after the build *)
}

(* Boot a machine and set it up: format, build, transaction environment,
   daemons. *)
let setup ?(traced = false) spec ~seed =
  let host0 = Spans.now () and alloc0 = Spans.words () in
  let clock = Clock.create () in
  let stats = Stats.create () in
  let sp = Spans.create clock in
  let phase ?detail name f = Spans.phase ?detail sp name f in
  let wrap role v = if traced then Spans.wrap_vfs sp ~role v else v in
  let cfg = spec.config and scale = spec.scale in
  (* The kernel setup leaves the log spindle (if any) free of a file
     system, so only there may the LFS checkpoint region use it. *)
  let disks, sched =
    phase "boot" (fun () ->
        let d =
          Diskset.create ~route_checkpoints:(spec.kind = Kernel_lfs) clock
            stats cfg
        in
        (d, Sched.create clock))
  in
  let rng = Rng.create ~seed in
  let open_env data_vfs logs =
    match logs with
    | [||] ->
      Libtp.open_env clock stats cfg data_vfs ~pool_pages
        ~log_path:"/tpcb/log" ()
    | fss ->
      let log_vfss = Array.map (fun fs -> wrap "log" (Ffs.vfs fs)) fss in
      Libtp.open_env clock stats cfg data_vfs ~log_vfss
        ~pool_pages ~log_path:"/log" ()
  in
  let format_logs () =
    Array.map (fun ld -> Ffs.format ld clock stats cfg) (Diskset.log_disks disks)
  in
  let fsck fs =
    (* Delayed writes leave an FFS bitmap stale after a crash; fsck
       rebuilds it from the inodes before anything allocates. *)
    let rep = Ffs.fsck fs in
    if rep.Ffs.cross_allocated > 0 then
      failwith (Printf.sprintf "fsck: %d cross-allocated blocks" rep.Ffs.cross_allocated);
    fs
  in
  let primary = Diskset.primary disks in
  let fs =
    phase "format" (fun () ->
        match spec.kind with
        | Kernel_lfs | User_lfs -> `Lfs (Lfs.format disks clock stats cfg)
        | User_ffs -> `Ffs (Ffs.format primary clock stats cfg))
  in
  let data_vfs = function `Lfs fs -> Lfs.vfs fs | `Ffs fs -> Ffs.vfs fs in
  let v = wrap "data" (data_vfs fs) in
  let db = phase ~detail:false "build" (fun () -> Tpcb.build clock stats cfg v ~rng ~scale) in
  let logs = ref [||] in
  let backend =
    phase "env" (fun () ->
        match (spec.kind, fs) with
        | Kernel_lfs, `Lfs lfs ->
          let k = Ktxn.create lfs in
          Tpcb.protect_all db k;
          Tpcb.Kernel k
        | _ ->
          logs := format_logs ();
          Tpcb.User (open_env v !logs))
  in
  (match fs with
  | `Lfs lfs -> phase "background" (fun () -> Lfs.start_background lfs)
  | `Ffs _ -> ());
  let crash () =
    (match fs with `Lfs fs -> Lfs.crash fs | `Ffs fs -> Ffs.crash fs);
    Array.iter Ffs.crash !logs
  in
  let remount () =
    let logs = Array.map (fun ld -> fsck (Ffs.mount ld clock stats cfg)) (Diskset.log_disks disks) in
    let fs =
      match fs with
      | `Lfs _ -> `Lfs (Lfs.mount disks clock stats cfg)
      | `Ffs _ -> `Ffs (fsck (Ffs.mount primary clock stats cfg))
    in
    (wrap "data" (data_vfs fs), logs)
  in
  let db = phase "open" (fun () -> Tpcb.open_db v ~scale) in
  let setup_host_s = Spans.now () -. host0 and setup_alloc_w = Spans.words () -. alloc0 in
  let db_bytes =
    List.fold_left
      (fun acc r -> acc + (v.Vfs.stat ("/tpcb/" ^ r)).Vfs.size)
      0 [ "account"; "teller"; "branch"; "history" ]
  in
  {
    spec;
    seed;
    traced;
    clock;
    stats;
    sp;
    disks;
    sched;
    rng;
    db;
    backend;
    crash;
    remount;
    open_env;
    setup_host_s;
    setup_alloc_w;
    db_bytes;
  }

(* Run the machine's measured window, then crash, recover, scan and
   check it. *)
let measure m =
  let { spec; seed; traced; clock; stats; sp; disks; sched; rng; db; backend; _ } = m in
  let { crash; remount; open_env; setup_host_s; setup_alloc_w; db_bytes; _ } = m in
  let phase name f = Spans.phase sp name f in
  let cfg = spec.config and scale = spec.scale in
  (* The measured window. Every stat is zeroed as it opens, so counters,
     maxima and histograms read at its close cover exactly the window. *)
  Stats.reset stats;
  if traced then Stats.set_trace stats (Some (Trace.create ()));
  let ring = Stats.trace stats in
  let wh0 = Spans.now () and wa0 = Spans.words () and ws0 = Clock.now clock in
  let outcome =
    match
      phase "window" (fun () ->
          Tpcb.run_sched clock stats cfg db backend ~rng ~n:txns ~mpl:spec.mpl)
    with
    | m -> Ok m
    | exception e -> Error (Printexc.to_string e)
  in
  let window_host_s = Spans.now () -. wh0 in
  let window_alloc_w = Spans.words () -. wa0 in
  let window_sim_s = Clock.now clock -. ws0 in
  Stats.set_trace stats None;
  Sched.detach sched;
  let acked = Stats.count stats "tpcb.commits" in
  let latencies, run_error =
    match outcome with
    | Ok m ->
      let l = Array.copy m.Tpcb.base.Tpcb.latencies_s in
      Array.sort compare l;
      (l, None)
    | Error msg -> ([||], Some msg)
  in
  let p50_s, p999_s =
    match run_error with
    | None -> (rank latencies 0.5, rank latencies 0.999)
    | Some _ -> (
      (* No per-transaction record survives an aborted window: fall back
         to the bucketed histogram. *)
      match Stats.histo stats "tpcb.txn" with
      | Some h -> (Histo.percentile h 0.5, Histo.percentile h 0.999)
      | None -> (0.0, 0.0))
  in
  let layers =
    Layers.window stats ~disks ~mpl:spec.mpl ~elapsed:window_sim_s ~committed:acked
      ~result:(match outcome with Ok m -> Some m | Error _ -> None)
      ~latencies ~spans:sp
  in
  (* Crash right after the window and recover through the public API.
     The account scan runs first, as the first query after restart: it
     must see the database as recovery left it, not a cache warmed by the
     benchmark's own checks. Consistency and durability are checked on
     the same recovered state afterwards (the scan only reads). *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let durable = ref 0 and scan_s = ref nan and cursor_next = ref 0 in
  (match
     phase "crash" crash;
     let v', logs' = phase "mount" remount in
     (match backend with
     | Tpcb.User _ -> phase "recover" (fun () -> ignore (open_env v' logs'))
     | Tpcb.Kernel _ -> ());
     (v', Tpcb.open_db v' ~scale)
   with
  | exception e -> fail "recovery: %s" (Printexc.to_string e)
  | v', db' ->
    (let c0 = Stats.count stats "cpu.cursor_next.n" in
     let r0 = Stats.count stats "scan.records" in
     match phase "scan" (fun () -> Workloads.scan clock stats cfg v' db') with
     | t ->
       scan_s := t;
       cursor_next := Stats.count stats "cpu.cursor_next.n" - c0;
       let scanned = Stats.count stats "scan.records" - r0 in
       if scanned <> scale.Tpcb.accounts then
         fail "scan: %d account records, expected %d" scanned scale.Tpcb.accounts
     | exception e -> fail "scan: %s" (Printexc.to_string e));
    let consistent =
      match phase "check" (fun () -> Tpcb.check_consistency clock stats cfg db' v') with
      | () -> true
      | exception e ->
        fail "consistency: %s" (Printexc.to_string e);
        false
    in
    (match phase "durability" (fun () -> Tpcb.history_count clock stats cfg db' v') with
    | h ->
      (* A completed window leaves nothing in flight, so history must hold
         exactly the acknowledged commits; an aborted one may also have
         landed up to [mpl] in-flight transactions. *)
      let slack = if run_error = None then 0 else spec.mpl in
      if h < acked || h > acked + slack then
        fail "durability: %d history records after recovery, %d acknowledged" h acked;
      (* An inconsistent database vouches for none of its commits. *)
      durable := if consistent then min h acked else 0
    | exception e -> fail "durability: %s" (Printexc.to_string e)));
  {
    seed;
    requested = txns;
    acked;
    durable = !durable;
    run_error;
    failures = List.rev !failures;
    window_sim_s;
    p50_s;
    p999_s;
    scan_s = !scan_s;
    setup_host_s;
    setup_alloc_w;
    db_bytes;
    window_host_s;
    window_alloc_w;
    layers;
    scan_cursor_next = !cursor_next;
    spans = sp;
    ring;
  }

let run ?traced spec ~seed = measure (setup ?traced spec ~seed)
