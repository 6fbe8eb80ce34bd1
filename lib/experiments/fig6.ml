type side = {
  fs_name : string;
  tps : float;
  scan_s : float;
  contiguity : float option;
  stats : Stats.t;
}

type t = { readopt : side; lfs : side; txns : int; config : Config.t }

let run ?config ?(tps_scale = 4) ?(txns = 20_000) ?(seed = 1) () =
  let config =
    Expcommon.on_demand_cleaner (Expcommon.scaled_config ?config tps_scale)
  in
  let scale = Tpcb.scale_for_tps tps_scale in
  let one setup =
    let m = Machine.boot config setup in
    let rng = Rng.create ~seed in
    let db = Machine.build m ~rng ~scale in
    let backend = Machine.open_txn m ~pool_pages:1024 in
    let r = Machine.run_window m db backend ~rng ~txns ~mpl:1 in
    (* Flush everything so the scan measures the on-disk layout, not the
       caches' leftovers. *)
    (match backend with
    | Tpcb.User env -> Libtp.checkpoint env
    | Tpcb.Kernel _ -> ());
    let v = Machine.vfs m in
    v.Vfs.sync ();
    let scan_s = Workloads.scan m.clock m.stats m.cfg v db in
    {
      fs_name = v.Vfs.name;
      tps = r.Tpcb.base.Tpcb.tps;
      scan_s;
      contiguity =
        (match m.fs with
        | Machine.Ffs fs -> Some (Ffs.contiguity fs "/tpcb/account")
        | Machine.Lfs _ -> None);
      stats = m.stats;
    }
  in
  { readopt = one Machine.Ffs_user; lfs = one Machine.Lfs_user; txns; config }

let side_json s =
  Json.Obj
    [
      ("fs", Json.Str s.fs_name);
      ("tps", Json.Float s.tps);
      ("scan_s", Json.Float s.scan_s);
      ( "contiguity",
        match s.contiguity with Some c -> Json.Float c | None -> Json.Null );
      ("stats", Stats.to_json s.stats);
    ]

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "fig6");
      ("txns", Json.Int t.txns);
      ("readopt", side_json t.readopt);
      ("lfs", side_json t.lfs);
    ]

let print t =
  Expcommon.pp_header
    (Printf.sprintf
       "Figure 6: Sequential (key-order) read after %d random transactions"
       t.txns);
  let row s =
    Printf.printf "%-16s scan %10.1fs   (preceding run: %.2f TPS)%s\n"
      s.fs_name s.scan_s s.tps
      (match s.contiguity with
      | Some c -> Printf.sprintf "   layout contiguity %.2f" c
      | None -> "")
  in
  row t.readopt;
  row t.lfs;
  Printf.printf
    "\nshape: LFS scan / read-optimized scan = %.2fx (paper: ~1.5x — \
     read-optimized 50%% faster)\n"
    (t.lfs.scan_s /. t.readopt.scan_s)
