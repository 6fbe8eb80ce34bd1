exception Crashed

let magic = 0x4646_5342 (* "FFSB" *)
let max_inodes = 8192
let root_inum = 1

(* Disk layout: block 0 superblock; then the inode table; then the block
   bitmap; then data blocks. *)

type t = {
  disk : Disk.t;
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  bs : int;
  nblocks : int;
  itable_start : int;
  itable_blocks : int;
  bitmap_start : int;
  bitmap_blocks : int;
  data_start : int;
  cache : Cache.t;
  inodes : (int, Inode.t) Hashtbl.t;
  dirty_inodes : (int, unit) Hashtbl.t;
  bitmap : Bytes.t; (* one bit per block *)
  mutable bitmap_dirty : bool;
  mutable free_inums : int list;
  mutable next_inum : int;
  mutable rotor : int; (* global next-fit pointer for allocation *)
  mutable last_syncer : float;
  mutable in_maintenance : bool;
  mutable crashed : bool;
}

let inodes_per_block t = t.bs / 256

let check_alive t = if t.crashed then raise Crashed

let config t = t.cfg
let clock t = t.clock
let stats t = t.stats
let cache t = t.cache

(* Bitmap *)

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i v =
  let mask = 1 lsl (i land 7) in
  let c = Char.code (Bytes.get b (i lsr 3)) in
  Bytes.set b (i lsr 3) (Char.chr (if v then c lor mask else c land lnot mask))

let free_blocks t =
  let n = ref 0 in
  for i = t.data_start to t.nblocks - 1 do
    if not (bit_get t.bitmap i) then incr n
  done;
  !n

let alloc_block t ~hint =
  let start =
    if hint >= t.data_start && hint < t.nblocks then hint else t.rotor
  in
  let found = ref (-1) in
  let probe i = if !found < 0 && not (bit_get t.bitmap i) then found := i in
  (* Next-fit from the hint, wrapping through the data region. *)
  let i = ref start in
  let steps = ref 0 in
  let span = t.nblocks - t.data_start in
  while !found < 0 && !steps < span do
    probe !i;
    incr i;
    if !i >= t.nblocks then i := t.data_start;
    incr steps
  done;
  match !found with
  | -1 -> Vfs.error No_space "FFS: disk full"
  | blk ->
    bit_set t.bitmap blk true;
    t.bitmap_dirty <- true;
    t.rotor <- (if blk + 1 >= t.nblocks then t.data_start else blk + 1);
    Stats.incr t.stats "ffs.blocks_allocated";
    blk

let free_block t blk =
  if blk >= t.data_start then begin
    bit_set t.bitmap blk false;
    t.bitmap_dirty <- true
  end

(* Inode table *)

let itable_blkno t inum = t.itable_start + (inum / inodes_per_block t)
let itable_off t inum = inum mod inodes_per_block t * 256

let mark_inode_dirty t ino =
  ino.Inode.dirty <- true;
  Hashtbl.replace t.dirty_inodes ino.Inode.inum ()

let iget_opt t inum =
  if inum <= 0 || inum >= max_inodes then None
  else
    match Hashtbl.find_opt t.inodes inum with
    | Some ino -> Some ino
    | None -> (
      let block = Disk.read t.disk (itable_blkno t inum) in
      match
        Inode.load ~block_size:t.bs ~read:(Disk.read t.disk) block
          (itable_off t inum)
      with
      | None -> None
      | Some ino ->
        Hashtbl.replace t.inodes inum ino;
        Some ino)

let iget t inum =
  match iget_opt t inum with
  | Some ino -> ino
  | None -> Vfs.error Not_found "inode %d" inum

(* Flushing --------------------------------------------------------------

   Delayed writes are issued elevator-sorted, which models the paper's
   "sorted in the disk queue with all the other I/O" behaviour: the write
   sweep pays short seeks instead of random ones, but each page is still a
   separate in-place I/O — LFS's batched segment write is what it is being
   compared against. *)

(* Make sure every dirty frame and every mapped block of a dirty inode has
   a disk address, then return the in-place write list. *)
let writes_for_inode t ino =
  let acc = ref [] in
  (* Indirect blocks that changed. *)
  let nind = Inode.indirect_count ino ~block_size:t.bs in
  if Hashtbl.length ino.Inode.dirty_ind > 0 then begin
    Hashtbl.iter
      (fun idx () ->
        if idx < nind then begin
          (if
             idx >= Array.length ino.Inode.ind_addrs
             || ino.Inode.ind_addrs.(idx) = 0
           then begin
             let addr = alloc_block t ~hint:t.rotor in
             if idx >= Array.length ino.Inode.ind_addrs then begin
               let a = Array.make (idx + 1) 0 in
               Array.blit ino.Inode.ind_addrs 0 a 0
                 (Array.length ino.Inode.ind_addrs);
               ino.Inode.ind_addrs <- a
             end;
             ino.Inode.ind_addrs.(idx) <- addr;
             if idx >= 1 then ino.Inode.dbl_dirty <- true
           end);
          acc :=
            ( ino.Inode.ind_addrs.(idx),
              Inode.encode_indirect ino ~block_size:t.bs idx )
            :: !acc
        end)
      ino.Inode.dirty_ind;
    Hashtbl.reset ino.Inode.dirty_ind
  end;
  if ino.Inode.dbl_dirty && nind > 1 then begin
    if ino.Inode.dbl_addr = 0 then
      ino.Inode.dbl_addr <- alloc_block t ~hint:t.rotor;
    acc := (ino.Inode.dbl_addr, Inode.encode_double ino ~block_size:t.bs) :: !acc;
    ino.Inode.dbl_dirty <- false
  end;
  !acc

let inode_table_writes t inums =
  (* Group dirty inodes by table block; read-modify-write each block. *)
  let by_block = Hashtbl.create 8 in
  List.iter
    (fun inum ->
      let blk = itable_blkno t inum in
      let l = Option.value (Hashtbl.find_opt by_block blk) ~default:[] in
      Hashtbl.replace by_block blk (inum :: l))
    inums;
  Hashtbl.fold
    (fun blk inums acc ->
      let b = Disk.read t.disk blk in
      List.iter
        (fun inum ->
          match Hashtbl.find_opt t.inodes inum with
          | Some ino ->
            Bytes.blit (Inode.encode ino) 0 b (itable_off t inum) 256;
            ino.Inode.dirty <- false
          | None ->
            (* Freed inode: clear the slot. *)
            Bytes.fill b (itable_off t inum) 256 '\000')
        inums;
      (blk, b) :: acc)
    by_block []

let bitmap_writes t =
  if not t.bitmap_dirty then []
  else begin
    t.bitmap_dirty <- false;
    List.init t.bitmap_blocks (fun i ->
        let b = Bytes.make t.bs '\000' in
        let off = i * t.bs in
        let n = min t.bs (Bytes.length t.bitmap - off) in
        if n > 0 then Bytes.blit t.bitmap off b 0 n;
        (t.bitmap_start + i, b))
  end

let issue_sorted t writes =
  let ordered = Elevator.order Elevator.Elevator ~head:(Disk.head t.disk) writes in
  List.iter
    (fun (blk, data) ->
      Disk.write_queued t.disk blk data;
      Stats.incr t.stats "ffs.inplace_writes")
    ordered

(* Assign addresses to dirty frames (allocation on first flush keeps
   sequentially-written files contiguous) and build the write list. *)
let frame_writes t frames =
  List.map
    (fun f ->
      let ino = iget t f.Cache.file in
      let addr =
        match Inode.get_addr ino f.Cache.lblock with
        | 0 ->
          let hint =
            if f.Cache.lblock > 0 then
              match Inode.get_addr ino (f.Cache.lblock - 1) with
              | 0 -> t.rotor
              | prev -> prev + 1
            else t.rotor
          in
          let addr = alloc_block t ~hint in
          Inode.set_addr ino ~block_size:t.bs f.Cache.lblock addr;
          mark_inode_dirty t ino;
          addr
        | addr -> addr
      in
      (addr, Bytes.copy f.Cache.data))
    frames

let flush_frames t frames =
  let data_writes = frame_writes t frames in
  (* Metadata for every file whose inode got dirty. *)
  let meta = ref [] in
  let dirty = Hashtbl.fold (fun inum () acc -> inum :: acc) t.dirty_inodes [] in
  List.iter
    (fun inum ->
      match Hashtbl.find_opt t.inodes inum with
      | Some ino -> meta := writes_for_inode t ino @ !meta
      | None -> ())
    dirty;
  let itable = inode_table_writes t dirty in
  Hashtbl.reset t.dirty_inodes;
  issue_sorted t (data_writes @ !meta @ itable);
  List.iter (fun f -> Cache.mark_clean t.cache f) frames

let sync_internal t =
  let frames = Cache.dirty_frames t.cache () in
  flush_frames t frames;
  issue_sorted t (bitmap_writes t)

let tick t =
  check_alive t;
  if not t.in_maintenance then begin
    t.in_maintenance <- true;
    if Clock.now t.clock -. t.last_syncer >= t.cfg.Config.fs.syncer_interval_s
    then begin
      t.last_syncer <- Clock.now t.clock;
      sync_internal t;
      Stats.incr t.stats "ffs.syncer_runs"
    end;
    t.in_maintenance <- false
  end

(* Page access ------------------------------------------------------------ *)

let zero_block t = Bytes.make t.bs '\000'

let get_page t ~inum ~lblock =
  match Cache.lookup t.cache ~file:inum ~lblock with
  | Some f -> f
  | None ->
    let ino = iget t inum in
    let addr = Inode.get_addr ino lblock in
    let data = if addr = 0 then zero_block t else Disk.read t.disk addr in
    Cache.insert t.cache ~file:inum ~lblock data

let new_page t ~inum ~lblock =
  match Cache.lookup t.cache ~file:inum ~lblock with
  | Some f -> f
  | None -> Cache.insert t.cache ~file:inum ~lblock (zero_block t)

(* Byte-level I/O --------------------------------------------------------- *)

let read_bytes t inum ~off ~len =
  let ino = iget t inum in
  if off < 0 || len < 0 then Vfs.error Invalid "read: negative offset/length";
  let len = max 0 (min len (ino.Inode.size - off)) in
  let out = Bytes.create len in
  let copied = ref 0 in
  while !copied < len do
    let pos = off + !copied in
    let lb = pos / t.bs and boff = pos mod t.bs in
    let n = min (t.bs - boff) (len - !copied) in
    let f = get_page t ~inum ~lblock:lb in
    Bytes.blit f.Cache.data boff out !copied n;
    Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Copy_block;
    copied := !copied + n
  done;
  out

let write_bytes t inum ~off data =
  let ino = iget t inum in
  let len = Bytes.length data in
  if off < 0 then Vfs.error Invalid "write: negative offset";
  let written = ref 0 in
  while !written < len do
    let pos = off + !written in
    let lb = pos / t.bs and boff = pos mod t.bs in
    let n = min (t.bs - boff) (len - !written) in
    let f =
      (* A read-modify-write is needed unless the write covers the whole
         block or the block lies entirely at or past end of file. *)
      if n = t.bs || lb * t.bs >= ino.Inode.size then new_page t ~inum ~lblock:lb
      else get_page t ~inum ~lblock:lb
    in
    Bytes.blit data !written f.Cache.data boff n;
    Cache.mark_dirty t.cache f;
    Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Copy_block;
    written := !written + n
  done;
  if off + len > ino.Inode.size then ino.Inode.size <- off + len;
  ino.Inode.mtime <- Clock.now t.clock;
  mark_inode_dirty t ino

let truncate_bytes t inum len =
  let ino = iget t inum in
  if len < 0 then Vfs.error Invalid "truncate: negative length";
  if len < ino.Inode.size then begin
    let keep = (len + t.bs - 1) / t.bs in
    let old_n = Inode.nblocks ino in
    for lb = keep to old_n - 1 do
      let addr = Inode.get_addr ino lb in
      if addr <> 0 then free_block t addr
    done;
    List.iter
      (fun f -> if f.Cache.lblock >= keep then Cache.invalidate t.cache f)
      (Cache.file_frames t.cache inum);
    (if len mod t.bs <> 0 && len < ino.Inode.size then begin
       let f = get_page t ~inum ~lblock:(len / t.bs) in
       Bytes.fill f.Cache.data (len mod t.bs) (t.bs - (len mod t.bs)) '\000';
       Cache.mark_dirty t.cache f
     end);
    let old_nind = Inode.indirect_count ino ~block_size:t.bs in
    Inode.truncate_map ino ~block_size:t.bs keep;
    let new_nind = Inode.indirect_count ino ~block_size:t.bs in
    for idx = new_nind to old_nind - 1 do
      if idx < Array.length ino.Inode.ind_addrs then begin
        free_block t ino.Inode.ind_addrs.(idx);
        ino.Inode.ind_addrs.(idx) <- 0
      end
    done;
    if new_nind <= 1 && ino.Inode.dbl_addr <> 0 then begin
      free_block t ino.Inode.dbl_addr;
      ino.Inode.dbl_addr <- 0;
      ino.Inode.dbl_dirty <- false
    end
  end;
  ino.Inode.size <- len;
  mark_inode_dirty t ino

(* Inode allocation ------------------------------------------------------- *)

let alloc_inode t ~kind =
  let inum =
    match t.free_inums with
    | i :: rest ->
      t.free_inums <- rest;
      i
    | [] ->
      if t.next_inum >= max_inodes then Vfs.error No_space "FFS: out of inodes";
      let i = t.next_inum in
      t.next_inum <- i + 1;
      i
  in
  let ino = Inode.create ~inum ~kind in
  ino.Inode.mtime <- Clock.now t.clock;
  Hashtbl.replace t.inodes inum ino;
  mark_inode_dirty t ino;
  inum

let free_inode t inum =
  truncate_bytes t inum 0;
  List.iter (Cache.invalidate t.cache) (Cache.file_frames t.cache inum);
  Hashtbl.remove t.inodes inum;
  Hashtbl.replace t.dirty_inodes inum () (* forces the slot to be cleared *);
  t.free_inums <- inum :: t.free_inums

(* Namespace --------------------------------------------------------------- *)

module Store = struct
  type nonrec t = t

  let root _ = root_inum
  let read t inum ~off ~len = read_bytes t inum ~off ~len
  let write t inum ~off data = write_bytes t inum ~off data
  let truncate t inum ~len = truncate_bytes t inum len
  let size t inum = (iget t inum).Inode.size
  let alloc_inode t ~kind = alloc_inode t ~kind
  let free_inode t inum = free_inode t inum
end

module Ns = Namespace.Make (Store)

let inum_of t path =
  match Ns.lookup t path with
  | Some (inum, _) -> inum
  | None -> Vfs.error Not_found "%s" path

(* Construction ------------------------------------------------------------ *)

let geometry (cfg : Config.t) nblocks =
  let bs = cfg.disk.block_size in
  let itable_blocks = (max_inodes * 256 + bs - 1) / bs in
  let bitmap_blocks = ((nblocks + 7) / 8 + bs - 1) / bs in
  let itable_start = 1 in
  let bitmap_start = itable_start + itable_blocks in
  let data_start = bitmap_start + bitmap_blocks in
  (bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start)

let make disk clock stats (cfg : Config.t) =
  let nblocks = Disk.nblocks disk in
  let bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start =
    geometry cfg nblocks
  in
  let t =
    {
      disk;
      clock;
      stats;
      cfg;
      bs;
      nblocks;
      itable_start;
      itable_blocks;
      bitmap_start;
      bitmap_blocks;
      data_start;
      cache = Cache.create clock stats cfg.cpu ~capacity:cfg.fs.cache_blocks;
      inodes = Hashtbl.create 64;
      dirty_inodes = Hashtbl.create 16;
      bitmap = Bytes.make ((nblocks + 7) / 8) '\000';
      bitmap_dirty = true;
      free_inums = [];
      next_inum = root_inum;
      rotor = data_start;
      last_syncer = Clock.now clock;
      in_maintenance = false;
      crashed = false;
    }
  in
  Cache.set_writeback t.cache (fun _victim ->
      (* Under cache pressure, write back all delayed writes in one
         elevator-sorted sweep, exactly as the syncer does — single
         random writes would misrepresent the sorted disk queue the
         paper's baseline relies on. *)
      let was = t.in_maintenance in
      t.in_maintenance <- true;
      flush_frames t (Cache.dirty_frames t.cache ());
      t.in_maintenance <- was);
  t

let write_superblock t =
  let b = Bytes.make t.bs '\000' in
  Enc.set_u32 b 0 magic;
  Enc.set_u32 b 4 t.nblocks;
  Enc.set_u32 b 8 max_inodes;
  Disk.write t.disk 0 b

let format disk clock stats cfg =
  let t = make disk clock stats cfg in
  (* Reserve the metadata region in the bitmap. *)
  for i = 0 to t.data_start - 1 do
    bit_set t.bitmap i true
  done;
  write_superblock t;
  (* Zero the inode table. *)
  let zero = Bytes.make t.bs '\000' in
  Disk.write_run t.disk t.itable_start
    (Bytes.make (t.itable_blocks * t.bs) '\000');
  ignore zero;
  let inum = alloc_inode t ~kind:Vfs.Dir in
  assert (inum = root_inum);
  sync_internal t;
  issue_sorted t (bitmap_writes t);
  t

let mount disk clock stats cfg =
  let t = make disk clock stats cfg in
  let b = Disk.read disk 0 in
  if Enc.get_u32 b 0 <> magic then Vfs.error Invalid "FFS: bad superblock";
  if Enc.get_u32 b 4 <> t.nblocks then Vfs.error Invalid "FFS: size mismatch";
  (* Load the bitmap. *)
  for i = 0 to t.bitmap_blocks - 1 do
    let blk = Disk.read disk (t.bitmap_start + i) in
    let off = i * t.bs in
    let n = min t.bs (Bytes.length t.bitmap - off) in
    if n > 0 then Bytes.blit blk 0 t.bitmap off n
  done;
  t.bitmap_dirty <- false;
  (* Scan the inode table for the allocation picture. *)
  let free = ref [] in
  let maxseen = ref root_inum in
  for blk = 0 to t.itable_blocks - 1 do
    let b = Disk.read disk (t.itable_start + blk) in
    for slot = 0 to inodes_per_block t - 1 do
      let inum = (blk * inodes_per_block t) + slot in
      if inum >= 1 && inum < max_inodes then
        match Inode.decode b (slot * 256) with
        | Some _ -> if inum > !maxseen then maxseen := inum
        | None -> ()
    done
  done;
  t.next_inum <- !maxseen + 1;
  for inum = t.next_inum - 1 downto 2 do
    let b = Disk.read disk (itable_blkno t inum) in
    if Inode.decode b (itable_off t inum) = None then free := inum :: !free
  done;
  t.free_inums <- !free;
  Stats.incr t.stats "ffs.mounts";
  t

let crash t = t.crashed <- true

let sync t =
  check_alive t;
  let was = t.in_maintenance in
  t.in_maintenance <- true;
  sync_internal t;
  issue_sorted t (bitmap_writes t);
  t.in_maintenance <- was

let unmount t =
  sync t;
  t.crashed <- true

let fsync_inum t inum =
  let was = t.in_maintenance in
  t.in_maintenance <- true;
  flush_frames t (Cache.dirty_frames t.cache ~file:inum ());
  t.in_maintenance <- was

(* fsck -------------------------------------------------------------------- *)

type fsck_report = {
  scanned_inodes : int;
  leaked_blocks : int;
  cross_allocated : int;
  fixed : bool;
}

let fsck t =
  check_alive t;
  let refcount = Bytes.make t.nblocks '\000' in
  let bump addr =
    if addr >= t.data_start && addr < t.nblocks then
      Bytes.set refcount addr
        (Char.chr (min 255 (Char.code (Bytes.get refcount addr) + 1)))
  in
  let scanned = ref 0 in
  for inum = 1 to max_inodes - 1 do
    match iget_opt t inum with
    | None -> ()
    | Some ino ->
      incr scanned;
      for lb = 0 to Inode.nblocks ino - 1 do
        bump (Inode.get_addr ino lb)
      done;
      let nind = Inode.indirect_count ino ~block_size:t.bs in
      for idx = 0 to nind - 1 do
        if idx < Array.length ino.Inode.ind_addrs then
          bump ino.Inode.ind_addrs.(idx)
      done;
      if nind > 1 then bump ino.Inode.dbl_addr
  done;
  let leaked = ref 0 and cross = ref 0 in
  for blk = t.data_start to t.nblocks - 1 do
    let refs = Char.code (Bytes.get refcount blk) in
    let marked = bit_get t.bitmap blk in
    if refs = 0 && marked then begin
      incr leaked;
      bit_set t.bitmap blk false;
      t.bitmap_dirty <- true
    end
    else if refs > 0 && not marked then begin
      bit_set t.bitmap blk true;
      t.bitmap_dirty <- true
    end;
    if refs > 1 then incr cross
  done;
  let fixed = t.bitmap_dirty in
  issue_sorted t (bitmap_writes t);
  { scanned_inodes = !scanned; leaked_blocks = !leaked; cross_allocated = !cross; fixed }

let contiguity t path =
  let ino = iget t (inum_of t path) in
  let n = Inode.nblocks ino in
  if n < 2 then 1.0
  else begin
    let adjacent = ref 0 and pairs = ref 0 in
    for lb = 1 to n - 1 do
      let a = Inode.get_addr ino (lb - 1) and b = Inode.get_addr ino lb in
      if a <> 0 && b <> 0 then begin
        incr pairs;
        if b = a + 1 then incr adjacent
      end
    done;
    if !pairs = 0 then 1.0 else float_of_int !adjacent /. float_of_int !pairs
  end

(* VFS surface -------------------------------------------------------------- *)

let charge_op t = Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Syscall

let resolve_file t path =
  match Ns.lookup t path with
  | Some (inum, Vfs.File) -> inum
  | Some (_, Vfs.Dir) -> Vfs.error Is_dir "%s" path
  | None -> Vfs.error Not_found "%s" path

let vfs t =
  let wrap f = fun x ->
    tick t;
    charge_op t;
    f x
  in
  {
    Vfs.name = "ffs";
    block_size = t.bs;
    create =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.File_op;
          Ns.create t path ~kind:Vfs.File);
    open_file =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.File_op;
          resolve_file t path);
    read =
      (fun fd ~off ~len ->
        tick t;
        charge_op t;
        read_bytes t fd ~off ~len);
    write =
      (fun fd ~off data ->
        tick t;
        charge_op t;
        write_bytes t fd ~off data);
    truncate =
      (fun fd len ->
        tick t;
        charge_op t;
        truncate_bytes t fd len);
    size = (fun fd -> (iget t fd).Inode.size);
    fsync = wrap (fun fd -> fsync_inum t fd);
    sync = wrap (fun () -> sync t);
    remove =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.File_op;
          Ns.remove t path);
    mkdir =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.File_op;
          ignore (Ns.create t path ~kind:Vfs.Dir));
    readdir = wrap (fun path -> Ns.readdir t path);
    exists = (fun path -> Option.is_some (Ns.lookup t path));
    stat =
      wrap (fun path ->
          match Ns.lookup t path with
          | None -> Vfs.error Not_found "%s" path
          | Some (inum, kind) ->
            let ino = iget t inum in
            {
              Vfs.inum;
              size = ino.Inode.size;
              kind;
              protected_ = ino.Inode.protected_;
            });
    set_protected =
      (fun path _ ->
        Vfs.error Not_supported
          "%s: transaction protection requires the embedded (LFS) manager"
          path);
  }
