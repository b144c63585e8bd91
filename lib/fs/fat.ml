open Sim

let cluster_size = 4096
let sectors_per_cluster = cluster_size / Blockdev.sector_size

(* FAT entry values. *)
let free_mark = -1
let end_of_chain = -2

type dirent = { mutable first : int; mutable size : int }

(* The allocation table is sparse: only allocated clusters have an
   entry; an absent cluster reads as [free_mark].  A dense array would
   cost O(disk size) per [format] — 4 MB for the default 2 GiB device —
   which dominates host time when the serving path formats a fresh
   scratch disk per request.  Sparse storage keeps [format] O(1) and
   memory proportional to live data, matching {!Blockdev}. *)
type t = {
  dev : Blockdev.t;
  fat : (int, int) Hashtbl.t;
      (** cluster -> next cluster or [end_of_chain]; absent = free. *)
  nclusters : int;
  mutable used : int;  (** Number of allocated clusters. *)
  dir : (string, dirent) Hashtbl.t;
  mutable next_free_hint : int;
}

let entry t c = match Hashtbl.find_opt t.fat c with Some v -> v | None -> free_mark

(* Calibration (Table 4): read 362 MB/s -> 11.31us per 4KiB cluster,
   decomposed as 8.75us chain/dirent walk + copy at 1.6 GB/s (2.56us).
   Write 1562 MB/s -> 2.62us per cluster: 1.0us allocation + copy at
   2.53 GB/s (1.62us). *)
let read_walk_overhead = Units.ns 8750
let read_copy_bw = 1.6e9
let write_alloc_overhead = Units.ns 1000
let write_copy_bw = 2.53e9

let charge clock cost = match clock with Some c -> Clock.advance c cost | None -> ()

let format dev =
  let clusters = Blockdev.size_bytes dev / cluster_size in
  {
    dev;
    fat = Hashtbl.create 64;
    nclusters = clusters;
    used = 0;
    dir = Hashtbl.create 64;
    next_free_hint = 0;
  }

(* Re-[format] in place: same result as [format (Blockdev.create ...)]
   of the same geometry, but reusing the filesystem's and device's
   arenas.  The serving recycling path resets per-request scratch disks
   this way instead of allocating ~100k of them. *)
let reset t =
  Blockdev.reset t.dev;
  Hashtbl.reset t.fat;
  t.used <- 0;
  Hashtbl.reset t.dir;
  t.next_free_hint <- 0

let free_clusters t = t.nclusters - t.used

let alloc_cluster t =
  let n = t.nclusters in
  let rec scan i tries =
    if tries = n then failwith "Fat: device full"
    else if not (Hashtbl.mem t.fat i) then begin
      t.next_free_hint <- (i + 1) mod n;
      i
    end
    else scan ((i + 1) mod n) (tries + 1)
  in
  let c = scan t.next_free_hint 0 in
  Hashtbl.replace t.fat c end_of_chain;
  t.used <- t.used + 1;
  c

let chain_of t first =
  let rec go c acc =
    if c = end_of_chain then List.rev acc
    else if c < 0 || c >= t.nclusters then failwith "Fat: corrupt chain"
    else go (entry t c) (c :: acc)
  in
  if first = end_of_chain then [] else go first []

let free_chain t first =
  List.iter
    (fun c ->
      if Hashtbl.mem t.fat c then begin
        Hashtbl.remove t.fat c;
        t.used <- t.used - 1
      end)
    (chain_of t first)

let cluster_sector c = c * sectors_per_cluster

let create_file t path =
  if Hashtbl.mem t.dir path then
    invalid_arg (Printf.sprintf "Fat.create_file: %s exists" path);
  Hashtbl.replace t.dir path { first = end_of_chain; size = 0 }

let find t path =
  match Hashtbl.find_opt t.dir path with
  | Some d -> d
  | None -> raise Not_found

let store_clusters t dirent data =
  let len = Bytes.length data in
  let nclusters = (len + cluster_size - 1) / cluster_size in
  let prev = ref free_mark in
  for i = 0 to nclusters - 1 do
    let c = alloc_cluster t in
    if !prev = free_mark then dirent.first <- c else Hashtbl.replace t.fat !prev c;
    let off = i * cluster_size in
    Blockdev.write_from t.dev ~sector:(cluster_sector c) ~count:sectors_per_cluster data off
      (Stdlib.min cluster_size (len - off));
    prev := c
  done;
  if nclusters = 0 then dirent.first <- end_of_chain;
  dirent.size <- len

let write_cost len =
  let nclusters = (len + cluster_size - 1) / cluster_size in
  Units.add
    (Units.scale write_alloc_overhead (float_of_int nclusters))
    (Units.time_for_bytes ~bytes_per_sec:write_copy_bw len)

let read_cost len =
  let nclusters = (len + cluster_size - 1) / cluster_size in
  Units.add
    (Units.scale read_walk_overhead (float_of_int nclusters))
    (Units.time_for_bytes ~bytes_per_sec:read_copy_bw len)

let write_file t ?clock path data =
  (match Hashtbl.find_opt t.dir path with
  | Some d ->
      free_chain t d.first;
      d.first <- end_of_chain;
      d.size <- 0
  | None -> create_file t path);
  let d = find t path in
  store_clusters t d data;
  charge clock (write_cost (Bytes.length data))

(* Walk [d]'s chain, reading each whole cluster but copying only the
   file's bytes, straight into [dst] from offset 0. *)
let read_chain t d dst =
  let off =
    List.fold_left
      (fun off c ->
        let len = Stdlib.max 0 (Stdlib.min cluster_size (d.size - off)) in
        Blockdev.read_into t.dev ~sector:(cluster_sector c) ~count:sectors_per_cluster dst off
          len;
        off + len)
      0 (chain_of t d.first)
  in
  if off <> d.size then failwith "Fat: chain shorter than file"

let read_file t ?clock path =
  let d = find t path in
  let out = Bytes.create d.size in
  read_chain t d out;
  charge clock (read_cost d.size);
  out

let file_size t path = (find t path).size

let exists t path = Hashtbl.mem t.dir path

let delete t path =
  let d = find t path in
  free_chain t d.first;
  Hashtbl.remove t.dir path

let list_files t = Hashtbl.fold (fun k _ acc -> k :: acc) t.dir [] |> List.sort compare

let chain_length t path = List.length (chain_of t (find t path).first)
