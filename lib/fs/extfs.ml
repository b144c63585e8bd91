open Sim

type extent = { start : int; count : int }  (** In sectors. *)

type inode = { mutable extents : extent list; mutable size : int }

type t = {
  dev : Blockdev.t;
  files : (string, inode) Hashtbl.t;
  free : Mem_free.t;
}

(* Calibration (Table 4): read 1351 MB/s -> 3.03us per 4KiB; write
   1282 MB/s -> 3.19us per 4KiB.  Extent lookup is charged per extent
   and is negligible for sequential files. *)
let read_bw = 1.351e9
let write_bw = 1.282e9
let per_extent_overhead = Units.ns 2300

let charge clock cost = match clock with Some c -> Clock.advance c cost | None -> ()

let format dev =
  {
    dev;
    files = Hashtbl.create 64;
    free = Mem_free.create ~start:0 ~count:(Blockdev.sectors dev);
  }

let sectors_for len = (len + Blockdev.sector_size - 1) / Blockdev.sector_size

let alloc_extents t nsectors =
  let rec go remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      match Mem_free.take t.free remaining with
      | None -> failwith "Extfs: device full"
      | Some (start, count) -> go (remaining - count) ({ start; count } :: acc)
    end
  in
  go nsectors []

let free_extents t inode =
  List.iter (fun e -> Mem_free.give t.free ~start:e.start ~count:e.count) inode.extents;
  inode.extents <- []

let write_file t ?clock path data =
  (match Hashtbl.find_opt t.files path with
  | Some inode -> free_extents t inode
  | None -> Hashtbl.replace t.files path { extents = []; size = 0 });
  let inode = Hashtbl.find t.files path in
  let nsectors = sectors_for (Bytes.length data) in
  let extents = alloc_extents t nsectors in
  let off = ref 0 in
  List.iter
    (fun e ->
      let len = Stdlib.min (e.count * Blockdev.sector_size) (Bytes.length data - !off) in
      Blockdev.write_from t.dev ~sector:e.start ~count:e.count data !off len;
      off := !off + len)
    extents;
  inode.extents <- extents;
  inode.size <- Bytes.length data;
  charge clock
    (Units.add
       (Units.scale per_extent_overhead (float_of_int (List.length extents)))
       (Units.time_for_bytes ~bytes_per_sec:write_bw (Bytes.length data)))

let find t path =
  match Hashtbl.find_opt t.files path with Some i -> i | None -> raise Not_found

let read_file t ?clock path =
  let inode = find t path in
  let out = Bytes.create inode.size in
  let off = ref 0 in
  List.iter
    (fun e ->
      let len = Stdlib.min (e.count * Blockdev.sector_size) (inode.size - !off) in
      Blockdev.read_into t.dev ~sector:e.start ~count:e.count out !off len;
      off := !off + len)
    inode.extents;
  charge clock
    (Units.add
       (Units.scale per_extent_overhead (float_of_int (List.length inode.extents)))
       (Units.time_for_bytes ~bytes_per_sec:read_bw inode.size));
  out

let file_size t path = (find t path).size

let exists t path = Hashtbl.mem t.files path

let delete t path =
  let inode = find t path in
  free_extents t inode;
  Hashtbl.remove t.files path

let list_files t = Hashtbl.fold (fun k _ acc -> k :: acc) t.files [] |> List.sort compare

let extent_count t path = List.length (find t path).extents
