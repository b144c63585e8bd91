let sector_size = 512

(* Sparse storage: only written sectors are materialised, so large
   virtual disks (the 2 GiB default images) cost memory proportional to
   live data, the way a sparse qcow/raw file does on a host. *)
type t = {
  store : (int, Bytes.t) Hashtbl.t;
  nsectors : int;
  mutable reads : int;
  mutable writes : int;
}

let create ~sectors =
  if sectors <= 0 then invalid_arg "Blockdev.create: sectors must be positive";
  (* Modest initial capacity: scratch devices are created (and [reset])
     once per request on the serving path, so the empty table — and the
     bucket array [reset] reallocates — should be small; the table
     grows on demand for write-heavy workloads. *)
  { store = Hashtbl.create 128; nsectors = sectors; reads = 0; writes = 0 }

let sectors t = t.nsectors
let size_bytes t = t.nsectors * sector_size

(* Back to the all-zero image of a fresh [create] (same geometry),
   reusing the sector store's arena — the serving recycling path resets
   a scratch device per request instead of allocating one. *)
let reset t =
  Hashtbl.reset t.store;
  t.reads <- 0;
  t.writes <- 0

let check t sector =
  if sector < 0 || sector >= t.nsectors then
    invalid_arg (Printf.sprintf "Blockdev: sector %d out of range" sector)

let check_range t sector count =
  check t sector;
  if count > 0 then check t (sector + count - 1)

let check_len fn count len =
  if len < 0 || len > count * sector_size then
    invalid_arg (Printf.sprintf "Blockdev.%s: %d bytes over %d sectors" fn len count)

(* The stored copy of [sector], materialised as zeroes on first write. *)
let stored t sector =
  match Hashtbl.find_opt t.store sector with
  | Some b -> b
  | None ->
      let fresh = Bytes.make sector_size '\000' in
      Hashtbl.replace t.store sector fresh;
      fresh

(* The one copy out of the store: [len] bytes from [sector] on into
   [dst] at [off]; unwritten sectors read as zeroes. *)
let read_into t ~sector ~count dst off len =
  check_range t sector count;
  check_len "read_into" count len;
  t.reads <- t.reads + count;
  let i = ref 0 in
  while !i * sector_size < len do
    let o = !i * sector_size in
    let n = Stdlib.min sector_size (len - o) in
    (match Hashtbl.find_opt t.store (sector + !i) with
    | Some b -> Bytes.blit b 0 dst (off + o) n
    | None -> Bytes.fill dst (off + o) n '\000');
    incr i
  done

(* The one copy into the store: [len] bytes of [src] from [off] into
   the sectors from [sector] on. *)
let write_from t ~sector ~count src off len =
  check_range t sector count;
  check_len "write_from" count len;
  t.writes <- t.writes + count;
  let i = ref 0 in
  while !i * sector_size < len do
    let o = !i * sector_size in
    Bytes.blit src (off + o) (stored t (sector + !i)) 0 (Stdlib.min sector_size (len - o));
    incr i
  done;
  (* Zero the rest of the [count] sectors, as a zero-padded buffer would. *)
  for i = len / sector_size to count - 1 do
    let from = Stdlib.max 0 (len - (i * sector_size)) in
    Bytes.fill (stored t (sector + i)) from (sector_size - from) '\000'
  done

let reads t = t.reads
let writes t = t.writes
