(* Tests for the filesystem substrate: block device, FAT, extent fs,
   ramfs, VFS, free-space tracking. *)

open Sim
open Fsim

let test_blockdev_roundtrip () =
  let dev = Blockdev.create ~sectors:128 in
  let sector = Bytes.init 512 (fun i -> Char.chr (i mod 256)) in
  Blockdev.write_sector dev 5 sector;
  Alcotest.(check bytes) "sector roundtrip" sector (Blockdev.read_sector dev 5);
  Alcotest.(check int) "reads counted" 1 (Blockdev.reads dev);
  Alcotest.(check int) "writes counted" 1 (Blockdev.writes dev)

let test_blockdev_sparse_zeroes () =
  let dev = Blockdev.create ~sectors:1024 in
  Alcotest.(check bytes) "untouched sector reads zero" (Bytes.make 512 '\000')
    (Blockdev.read_sector dev 1000)

let test_blockdev_range () =
  let dev = Blockdev.create ~sectors:64 in
  let data = Bytes.init 1500 (fun i -> Char.chr ((i * 7) mod 256)) in
  Blockdev.write_range dev ~sector:3 data;
  let got = Blockdev.read_range dev ~sector:3 ~count:3 in
  Alcotest.(check bytes) "range content" data (Bytes.sub got 0 1500);
  (* Partial-tail write preserves the rest of the sector. *)
  Blockdev.write_sector dev 10 (Bytes.make 512 'a');
  Blockdev.write_range dev ~sector:10 (Bytes.make 100 'b');
  let s = Blockdev.read_sector dev 10 in
  Alcotest.(check char) "head overwritten" 'b' (Bytes.get s 0);
  Alcotest.(check char) "tail preserved" 'a' (Bytes.get s 100)

let test_blockdev_bounds () =
  let dev = Blockdev.create ~sectors:8 in
  match Blockdev.read_sector dev 8 with
  | _ -> Alcotest.fail "out of range must raise"
  | exception Invalid_argument _ -> ()

let fresh_fat ?(mib = 16) () =
  Fat.format (Blockdev.create ~sectors:(mib * 1024 * 1024 / Blockdev.sector_size))

let test_fat_roundtrip () =
  let fs = fresh_fat () in
  let data = Bytes.init 10_000 (fun i -> Char.chr (i mod 253)) in
  Fat.write_file fs "/a.bin" data;
  Alcotest.(check bytes) "roundtrip" data (Fat.read_file fs "/a.bin");
  Alcotest.(check int) "size" 10_000 (Fat.file_size fs "/a.bin");
  Alcotest.(check int) "chain length" 3 (Fat.chain_length fs "/a.bin")

let test_fat_empty_file () =
  let fs = fresh_fat () in
  Fat.create_file fs "/empty";
  Alcotest.(check int) "empty size" 0 (Fat.file_size fs "/empty");
  Alcotest.(check bytes) "empty read" Bytes.empty (Fat.read_file fs "/empty");
  Alcotest.(check int) "no clusters" 0 (Fat.chain_length fs "/empty")

let test_fat_overwrite_frees () =
  let fs = fresh_fat () in
  let before = Fat.free_clusters fs in
  Fat.write_file fs "/f" (Bytes.make 40_000 'x');
  Fat.write_file fs "/f" (Bytes.make 4_000 'y');
  Alcotest.(check int) "only new clusters held" (before - 1) (Fat.free_clusters fs);
  Alcotest.(check bytes) "overwritten" (Bytes.make 4_000 'y') (Fat.read_file fs "/f")

let test_fat_delete_frees () =
  let fs = fresh_fat () in
  let before = Fat.free_clusters fs in
  Fat.write_file fs "/f" (Bytes.make 100_000 'x');
  Fat.delete fs "/f";
  Alcotest.(check int) "all clusters back" before (Fat.free_clusters fs);
  match Fat.read_file fs "/f" with
  | _ -> Alcotest.fail "deleted file must be gone"
  | exception Not_found -> ()

let test_fat_append () =
  let fs = fresh_fat () in
  Fat.write_file fs "/log" (Bytes.of_string "hello ");
  Fat.append_file fs "/log" (Bytes.of_string "world");
  Alcotest.(check bytes) "appended" (Bytes.of_string "hello world")
    (Fat.read_file fs "/log");
  Fat.append_file fs "/fresh" (Bytes.of_string "new");
  Alcotest.(check bytes) "append creates" (Bytes.of_string "new")
    (Fat.read_file fs "/fresh")

let test_fat_many_files () =
  let fs = fresh_fat () in
  for i = 0 to 49 do
    Fat.write_file fs (Printf.sprintf "/f%d" i) (Bytes.make (100 * (i + 1)) (Char.chr (65 + (i mod 26))))
  done;
  Alcotest.(check int) "listing" 50 (List.length (Fat.list_files fs));
  for i = 0 to 49 do
    let data = Fat.read_file fs (Printf.sprintf "/f%d" i) in
    Alcotest.(check int) (Printf.sprintf "size %d" i) (100 * (i + 1)) (Bytes.length data);
    Alcotest.(check char) "content" (Char.chr (65 + (i mod 26))) (Bytes.get data 0)
  done

let test_fat_read_slower_than_write () =
  (* Table 4: rust-fatfs reads at 362 MB/s but writes at 1562 MB/s. *)
  let fs = fresh_fat ~mib:64 () in
  let data = Bytes.make (Units.mib 32) 'd' in
  let wclock = Clock.create () in
  Fat.write_file fs ~clock:wclock "/big" data;
  let rclock = Clock.create () in
  ignore (Fat.read_file fs ~clock:rclock "/big");
  let w = Clock.now wclock and r = Clock.now rclock in
  Alcotest.(check bool) "read slower" true (Units.( > ) r w);
  let mbps t = float_of_int (Units.mib 32) /. Units.to_sec t /. 1e6 in
  Alcotest.(check bool) "read ~362 MB/s" true (mbps r > 330.0 && mbps r < 400.0);
  Alcotest.(check bool) "write ~1562 MB/s" true (mbps w > 1400.0 && mbps w < 1700.0)

let fat_roundtrip_property =
  QCheck.Test.make ~name:"fat: random writes read back exactly" ~count:80
    QCheck.(list_of_size (Gen.int_range 1 8) (pair (string_of_size (Gen.int_range 1 8)) (string_of_size (Gen.int_range 0 20_000))))
    (fun files ->
      let fs = fresh_fat () in
      (* Last write per name wins, like a real fs. *)
      List.iter (fun (name, data) -> Fat.write_file fs ("/" ^ name) (Bytes.of_string data)) files;
      let final = Hashtbl.create 8 in
      List.iter (fun (name, data) -> Hashtbl.replace final name data) files;
      Hashtbl.fold
        (fun name data acc ->
          acc && Bytes.to_string (Fat.read_file fs ("/" ^ name)) = data)
        final true)

(* FAT reads and writes copy straight between the caller's bytes and
   the device: every size round-trips, and the sector counters and
   clock charges are those of whole-cluster I/O, 8 sectors a cluster. *)
let test_fat_single_copy_io () =
  let dev = Blockdev.create ~sectors:(4 * 1024 * 1024 / Blockdev.sector_size) in
  let fs = Fat.format dev in
  let clock = Clock.create () in
  let data n = Bytes.init n (fun i -> Char.chr (((i * 31) + n) land 255)) in
  let clusters n = (n + Fat.cluster_size - 1) / Fat.cluster_size in
  let io label ~reads ~writes f =
    let r = Blockdev.reads dev and w = Blockdev.writes dev in
    let v = f () in
    Alcotest.(check int) (label ^ ": sector reads") reads (Blockdev.reads dev - r);
    Alcotest.(check int) (label ^ ": sector writes") writes (Blockdev.writes dev - w);
    v
  in
  List.iter
    (fun n ->
      let path = Printf.sprintf "/f%d" n in
      io (Printf.sprintf "write %d" n) ~reads:0 ~writes:(8 * clusters n) (fun () ->
          Fat.write_file fs ~clock path (data n));
      let got =
        io (Printf.sprintf "read %d" n) ~reads:(8 * clusters n) ~writes:0 (fun () ->
            Fat.read_file fs ~clock path)
      in
      Alcotest.(check bytes) (Printf.sprintf "%d bytes back" n) (data n) got)
    [ 0; 1; 4095; 4096; 4097; (3 * 4096) + 17 ];
  (* A shorter file over a longer one frees the tail clusters. *)
  let free = Fat.free_clusters fs in
  io "overwrite" ~reads:0 ~writes:16 (fun () -> Fat.write_file fs ~clock "/f12305" (data 5000));
  Alcotest.(check int) "tail clusters freed" (free + 2) (Fat.free_clusters fs);
  Alcotest.(check bytes) "shorter file back" (data 5000)
    (io "read shorter" ~reads:16 ~writes:0 (fun () -> Fat.read_file fs ~clock "/f12305"));
  (* An append reads the old clusters and rewrites the whole file. *)
  io "append" ~reads:8 ~writes:16 (fun () -> Fat.append_file fs ~clock "/f4095" (data 2));
  Alcotest.(check bytes) "appended" (Bytes.cat (data 4095) (data 2)) (Fat.read_file fs "/f4095");
  Alcotest.(check int64) "clock charges" 149_754L (Units.to_ns (Clock.now clock))

(* Extfs reads copy each extent straight into the result: sizes
   round-trip with one sector read or write per 512 bytes. *)
let test_extfs_single_copy_io () =
  let dev = Blockdev.create ~sectors:4096 in
  let fs = Extfs.format dev in
  let clock = Clock.create () in
  let sectors n = (n + Blockdev.sector_size - 1) / Blockdev.sector_size in
  List.iter
    (fun n ->
      let data = Bytes.init n (fun i -> Char.chr ((i * 7) land 255)) in
      let path = Printf.sprintf "/e%d" n in
      let w = Blockdev.writes dev in
      Extfs.write_file fs ~clock path data;
      Alcotest.(check int) (Printf.sprintf "write %d: sectors" n) (sectors n) (Blockdev.writes dev - w);
      let r = Blockdev.reads dev in
      Alcotest.(check bytes) (Printf.sprintf "%d bytes back" n) data (Extfs.read_file fs ~clock path);
      Alcotest.(check int) (Printf.sprintf "read %d: sectors" n) (sectors n) (Blockdev.reads dev - r))
    [ 0; 1; 511; 512; 513; 5000 ];
  Alcotest.(check int64) "clock charges" 32_938L (Units.to_ns (Clock.now clock))

(* [write_from] writes whole sectors, zero-padded past the source;
   [read_into] counts whole sectors but copies only what is asked. *)
let test_blockdev_single_copy () =
  let dev = Blockdev.create ~sectors:16 in
  Blockdev.write_range dev ~sector:2 (Bytes.make (4 * 512) 'x');
  let src = Bytes.init 1000 (fun i -> Char.chr (i land 255)) in
  Blockdev.write_from dev ~sector:2 ~count:3 src 100 700;
  Alcotest.(check int) "write_from counts 3 sectors" 7 (Blockdev.writes dev);
  let want = Bytes.make (4 * 512) 'x' in
  Bytes.fill want 0 (3 * 512) '\000';
  Bytes.blit src 100 want 0 700;
  Alcotest.(check bytes) "source, zeroes, untouched 4th sector" want
    (Blockdev.read_range dev ~sector:2 ~count:4);
  let dst = Bytes.make 10 '-' in
  Blockdev.read_into dev ~sector:2 ~count:2 dst 3 5;
  Alcotest.(check int) "read_into counts 2 sectors" 6 (Blockdev.reads dev);
  Alcotest.(check string) "5 bytes at offset 3" "---defgh--" (Bytes.to_string dst);
  (match Blockdev.read_into dev ~sector:2 ~count:1 dst 0 513 with
  | () -> Alcotest.fail "len over count sectors must raise"
  | exception Invalid_argument _ -> ());
  match Blockdev.write_from dev ~sector:15 ~count:2 src 0 10 with
  | () -> Alcotest.fail "sector range past the device must raise"
  | exception Invalid_argument _ -> ()

let test_fat_directories () =
  let fs = fresh_fat () in
  Alcotest.(check bool) "root exists" true (Fat.is_dir fs "/");
  Fat.mkdir fs "/data";
  Fat.mkdir fs "/data/raw";
  Alcotest.(check bool) "nested dir" true (Fat.is_dir fs "/data/raw");
  Fat.write_file fs "/data/raw/a.bin" (Bytes.of_string "a");
  Fat.write_file fs "/data/b.bin" (Bytes.of_string "b");
  Alcotest.(check (list string)) "list /data" [ "b.bin"; "raw" ] (Fat.list_dir fs "/data");
  Alcotest.(check (list string)) "list /data/raw" [ "a.bin" ] (Fat.list_dir fs "/data/raw");
  (* mkdir without parent / duplicates *)
  (match Fat.mkdir fs "/no/parent" with
  | _ -> Alcotest.fail "missing parent must fail"
  | exception Not_found -> ());
  (match Fat.mkdir fs "/data" with
  | _ -> Alcotest.fail "duplicate must fail"
  | exception Invalid_argument _ -> ());
  (* rmdir semantics *)
  (match Fat.rmdir fs "/data" with
  | _ -> Alcotest.fail "non-empty rmdir must fail"
  | exception Invalid_argument _ -> ());
  Fat.delete fs "/data/raw/a.bin";
  Fat.rmdir fs "/data/raw";
  Alcotest.(check bool) "removed" false (Fat.is_dir fs "/data/raw");
  match Fat.rmdir fs "/" with
  | _ -> Alcotest.fail "cannot remove root"
  | exception Invalid_argument _ -> ()

let test_extfs_roundtrip () =
  let fs = Extfs.format (Blockdev.create ~sectors:65536) in
  let data = Bytes.init 50_000 (fun i -> Char.chr ((i * 3) mod 256)) in
  Extfs.write_file fs "/x" data;
  Alcotest.(check bytes) "roundtrip" data (Extfs.read_file fs "/x");
  Alcotest.(check int) "one extent when fresh" 1 (Extfs.extent_count fs "/x");
  Extfs.delete fs "/x";
  Alcotest.(check bool) "gone" false (Extfs.exists fs "/x")

let test_extfs_faster_read_than_fat () =
  let data = Bytes.make (Units.mib 8) 'e' in
  let fat = fresh_fat ~mib:32 () in
  Fat.write_file fat "/f" data;
  let ext = Extfs.format (Blockdev.create ~sectors:(Units.mib 32 / 512)) in
  Extfs.write_file ext "/f" data;
  let cf = Clock.create () and ce = Clock.create () in
  ignore (Fat.read_file fat ~clock:cf "/f");
  ignore (Extfs.read_file ext ~clock:ce "/f");
  Alcotest.(check bool) "ext4 reads faster" true
    (Units.( < ) (Clock.now ce) (Clock.now cf))

let test_extfs_fragmentation () =
  (* Fill the device completely, then punch two non-adjacent 64-sector
     holes: a 100-sector file must span both (two extents) and still
     read back intact. *)
  let fs = Extfs.format (Blockdev.create ~sectors:256) in
  Extfs.write_file fs "/a" (Bytes.make (64 * 512) 'a');
  Extfs.write_file fs "/b" (Bytes.make (64 * 512) 'b');
  Extfs.write_file fs "/c" (Bytes.make (64 * 512) 'c');
  Extfs.write_file fs "/d" (Bytes.make (64 * 512) 'd');
  Extfs.delete fs "/a";
  Extfs.delete fs "/c";
  let data = Bytes.make (100 * 512) 'e' in
  Extfs.write_file fs "/e" data;
  Alcotest.(check bytes) "fragmented roundtrip" data (Extfs.read_file fs "/e");
  Alcotest.(check bool) "multiple extents" true (Extfs.extent_count fs "/e" >= 2)

let test_ramfs_behaviour () =
  let fs = Ramfs.create () in
  Ramfs.write_file fs "/r" (Bytes.of_string "ram");
  Alcotest.(check bytes) "roundtrip" (Bytes.of_string "ram") (Ramfs.read_file fs "/r");
  let clock = Clock.create () in
  ignore (Ramfs.read_file fs ~clock "/r");
  Alcotest.(check bool) "fast but not free" true
    (Units.( > ) (Clock.now clock) Units.zero);
  Ramfs.delete fs "/r";
  Alcotest.(check (list string)) "empty" [] (Ramfs.list_files fs)

let test_vfs_uniform () =
  let backends = [ Vfs.fresh_fat ~mib:8 (); Vfs.fresh_extfs ~mib:8 (); Vfs.fresh_ramfs () ] in
  List.iter
    (fun (vfs : Vfs.t) ->
      let data = Bytes.of_string ("payload for " ^ vfs.Vfs.name) in
      vfs.Vfs.write_file "/p" data;
      Alcotest.(check bytes) (vfs.Vfs.name ^ " roundtrip") data (vfs.Vfs.read_file "/p");
      Alcotest.(check bool) (vfs.Vfs.name ^ " exists") true (vfs.Vfs.exists "/p");
      Alcotest.(check int) (vfs.Vfs.name ^ " size") (Bytes.length data) (vfs.Vfs.file_size "/p");
      vfs.Vfs.delete "/p";
      Alcotest.(check bool) (vfs.Vfs.name ^ " deleted") false (vfs.Vfs.exists "/p"))
    backends

let test_mem_free_tracker () =
  let t = Mem_free.create ~start:0 ~count:100 in
  let s1, c1 = Option.get (Mem_free.take t 30) in
  Alcotest.(check (pair int int)) "first take" (0, 30) (s1, c1);
  let s2, c2 = Option.get (Mem_free.take t 30) in
  Alcotest.(check (pair int int)) "second take" (30, 30) (s2, c2);
  Mem_free.give t ~start:0 ~count:30;
  Mem_free.give t ~start:30 ~count:30;
  Alcotest.(check int) "coalesced" 1 (Mem_free.hole_count t);
  Alcotest.(check int) "all back" 100 (Mem_free.free_sectors t);
  (* Oversized request splits across holes. *)
  let _ = Option.get (Mem_free.take t 100) in
  Alcotest.(check (option (pair int int))) "exhausted" None (Mem_free.take t 1)

let suite =
  [
    Alcotest.test_case "blockdev roundtrip" `Quick test_blockdev_roundtrip;
    Alcotest.test_case "blockdev sparse zeroes" `Quick test_blockdev_sparse_zeroes;
    Alcotest.test_case "blockdev ranges" `Quick test_blockdev_range;
    Alcotest.test_case "blockdev bounds" `Quick test_blockdev_bounds;
    Alcotest.test_case "fat roundtrip" `Quick test_fat_roundtrip;
    Alcotest.test_case "fat empty file" `Quick test_fat_empty_file;
    Alcotest.test_case "fat overwrite frees" `Quick test_fat_overwrite_frees;
    Alcotest.test_case "fat delete frees" `Quick test_fat_delete_frees;
    Alcotest.test_case "fat append" `Quick test_fat_append;
    Alcotest.test_case "fat many files" `Quick test_fat_many_files;
    Alcotest.test_case "fat Table-4 asymmetry" `Quick test_fat_read_slower_than_write;
    QCheck_alcotest.to_alcotest fat_roundtrip_property;
    Alcotest.test_case "fat directories" `Quick test_fat_directories;
    Alcotest.test_case "extfs roundtrip" `Quick test_extfs_roundtrip;
    Alcotest.test_case "extfs faster than fat" `Quick test_extfs_faster_read_than_fat;
    Alcotest.test_case "extfs fragmentation" `Quick test_extfs_fragmentation;
    Alcotest.test_case "ramfs behaviour" `Quick test_ramfs_behaviour;
    Alcotest.test_case "vfs uniform interface" `Quick test_vfs_uniform;
    Alcotest.test_case "sector free-space tracker" `Quick test_mem_free_tracker;
    Alcotest.test_case "fat single-copy I/O" `Quick test_fat_single_copy_io;
    Alcotest.test_case "extfs single-copy I/O" `Quick test_extfs_single_copy_io;
    Alcotest.test_case "blockdev single-copy primitives" `Quick test_blockdev_single_copy;
  ]
