(* Tests for the memory subsystem: MPK protection, page tables,
   address spaces, the linked-list allocator, demand paging. *)

open Mem

let k = Prot.key_of_int

let test_prot_keys () =
  Alcotest.(check int) "default key" 0 (Prot.key_to_int Prot.default_key);
  Alcotest.check_raises "key 16 invalid"
    (Invalid_argument "Prot.key_of_int: key must be in 0..15") (fun () ->
      ignore (Prot.key_of_int 16));
  Alcotest.check_raises "negative key"
    (Invalid_argument "Prot.key_of_int: key must be in 0..15") (fun () ->
      ignore (Prot.key_of_int (-1)))

let test_pkru_rights () =
  let p = Prot.pkru_allow_all in
  Alcotest.(check bool) "allow-all reads" true (Prot.can_read p (k 5));
  Alcotest.(check bool) "allow-all writes" true (Prot.can_write p (k 5));
  let p = Prot.deny p (k 5) in
  Alcotest.(check bool) "denied read" false (Prot.can_read p (k 5));
  Alcotest.(check bool) "denied write" false (Prot.can_write p (k 5));
  Alcotest.(check bool) "other key unaffected" true (Prot.can_read p (k 6));
  let p = Prot.deny_write p (k 5) in
  Alcotest.(check bool) "read-only read" true (Prot.can_read p (k 5));
  Alcotest.(check bool) "read-only write" false (Prot.can_write p (k 5));
  let p = Prot.allow p (k 5) in
  Alcotest.(check bool) "re-allowed" true (Prot.can_write p (k 5))

let test_pkru_deny_all_except () =
  let p = Prot.pkru_deny_all_except [ k 2; k 3 ] in
  Alcotest.(check bool) "granted key 2" true (Prot.can_write p (k 2));
  Alcotest.(check bool) "granted key 3" true (Prot.can_read p (k 3));
  Alcotest.(check bool) "key 0 denied" false (Prot.can_read p (k 0));
  Alcotest.(check bool) "key 15 denied" false (Prot.can_read p (k 15));
  (* Execute is never policed by PKRU. *)
  Alcotest.(check bool) "execute allowed" true (Prot.access_allowed p (k 0) Prot.Execute)

let test_page_geometry () =
  Alcotest.(check int) "size" 4096 Page.size;
  Alcotest.(check int) "vpn" 2 (Page.vpn_of_addr 8192);
  Alcotest.(check int) "offset" 1 (Page.offset_of_addr 8193);
  Alcotest.(check int) "align up" 8192 (Page.align_up 4097);
  Alcotest.(check int) "align up exact" 4096 (Page.align_up 4096);
  Alcotest.(check int) "align down" 4096 (Page.align_down 8191);
  Alcotest.(check int) "count" 2 (Page.count_for 4097);
  Alcotest.(check int) "count zero" 0 (Page.count_for 0)

let base = 0x10_0000
let all = Prot.pkru_allow_all

let fresh_mapped ?(len = 4096 * 4) ?perm ?pkey () =
  let aspace = Address_space.create () in
  Address_space.map aspace ~addr:base ~len
    ~perm:(Option.value perm ~default:Page.rw)
    ~pkey:(Option.value pkey ~default:Prot.default_key);
  aspace

let test_aspace_roundtrip () =
  let aspace = fresh_mapped () in
  let data = Bytes.of_string "hello, WFD" in
  Address_space.store_bytes aspace ~pkru:all base data;
  let got = Address_space.load_bytes aspace ~pkru:all base (Bytes.length data) in
  Alcotest.(check bytes) "roundtrip" data got

let test_aspace_cross_page () =
  let aspace = fresh_mapped () in
  let data = Bytes.init 10_000 (fun i -> Char.chr (i mod 256)) in
  Address_space.store_bytes aspace ~pkru:all (base + 100) data;
  let got = Address_space.load_bytes aspace ~pkru:all (base + 100) 10_000 in
  Alcotest.(check bytes) "cross-page roundtrip" data got

let test_aspace_unmapped_fault () =
  let aspace = fresh_mapped () in
  (match Address_space.load_byte aspace ~pkru:all 0x50_0000 with
  | _ -> Alcotest.fail "expected fault"
  | exception Address_space.Fault { kind = Address_space.Unmapped; _ } -> ());
  (* A bulk op that runs off the end of the mapping faults too. *)
  match
    Address_space.load_bytes aspace ~pkru:all (base + (4096 * 3)) 8192
  with
  | _ -> Alcotest.fail "expected fault"
  | exception Address_space.Fault { kind = Address_space.Unmapped; _ } -> ()

let test_aspace_perm_fault () =
  let aspace = fresh_mapped ~perm:Page.ro () in
  (match Address_space.store_byte aspace ~pkru:all base 'x' with
  | () -> Alcotest.fail "expected write fault"
  | exception Address_space.Fault { kind = Address_space.Perm_denied Prot.Write; _ } -> ());
  (* Reads still fine. *)
  ignore (Address_space.load_byte aspace ~pkru:all base);
  (* Not executable. *)
  match Address_space.check_exec aspace ~pkru:all base with
  | () -> Alcotest.fail "expected exec fault"
  | exception Address_space.Fault { kind = Address_space.Perm_denied Prot.Execute; _ } -> ()

let test_aspace_pkey_fault () =
  let aspace = fresh_mapped ~pkey:(k 4) () in
  let pkru = Prot.pkru_deny_all_except [ k 2 ] in
  (match Address_space.load_byte aspace ~pkru base with
  | _ -> Alcotest.fail "expected pkey fault"
  | exception Address_space.Fault { kind = Address_space.Pkey_denied (Prot.Read, key); _ }
    ->
      Alcotest.(check int) "faulting key" 4 (Prot.key_to_int key));
  (* Granting the key fixes it. *)
  let pkru = Prot.allow pkru (k 4) in
  ignore (Address_space.load_byte aspace ~pkru base)

let test_aspace_pkey_mprotect () =
  let aspace = fresh_mapped () in
  Address_space.pkey_mprotect aspace ~addr:base ~len:4096 (k 7);
  Alcotest.(check int) "retagged" 7 (Prot.key_to_int (Address_space.key_of aspace base));
  Alcotest.(check int) "rest untouched" 0
    (Prot.key_to_int (Address_space.key_of aspace (base + 4096)));
  let pkru = Prot.pkru_deny_all_except [ k 0 ] in
  (match Address_space.load_byte aspace ~pkru base with
  | _ -> Alcotest.fail "expected fault after retag"
  | exception Address_space.Fault _ -> ());
  ignore (Address_space.load_byte aspace ~pkru (base + 4096))

let test_aspace_map_conflicts () =
  let aspace = fresh_mapped () in
  (match Address_space.map aspace ~addr:base ~len:4096 ~perm:Page.rw ~pkey:Prot.default_key with
  | () -> Alcotest.fail "double map must fail"
  | exception Invalid_argument _ -> ());
  (match Address_space.map aspace ~addr:(base + 1) ~len:4096 ~perm:Page.rw ~pkey:Prot.default_key with
  | () -> Alcotest.fail "unaligned map must fail"
  | exception Invalid_argument _ -> ());
  Address_space.unmap aspace ~addr:base ~len:4096;
  (* Now the first page can be mapped again. *)
  Address_space.map aspace ~addr:base ~len:4096 ~perm:Page.rw ~pkey:Prot.default_key;
  Alcotest.(check int) "page count stable" 4 (Address_space.page_count aspace)

let test_demand_paging () =
  let aspace = fresh_mapped () in
  let backing = Bytes.make 4096 '\xAB' in
  Address_space.set_fault_handler aspace
    (Some (fun addr -> Address_space.populate_page aspace ~vpn:(Page.vpn_of_addr addr) backing));
  let c = Address_space.load_byte aspace ~pkru:all (base + 4096) in
  Alcotest.(check char) "populated on fault" '\xAB' c;
  Alcotest.(check int) "one fault" 1 (Address_space.touched_fault_count aspace);
  ignore (Address_space.load_byte aspace ~pkru:all (base + 4097));
  Alcotest.(check int) "no second fault for same page" 1
    (Address_space.touched_fault_count aspace)

(* --- revocation: every access walks, so a revoked right faults on
   the very next access --- *)

let test_aspace_mprotect_revoke () =
  let a = fresh_mapped ~len:4096 () in
  Address_space.store_byte a ~pkru:all base 'a';
  ignore (Address_space.load_byte a ~pkru:all base);
  Address_space.mprotect a ~addr:base ~len:4096 Page.ro;
  (match Address_space.store_byte a ~pkru:all base 'b' with
  | () -> Alcotest.fail "expected write fault after mprotect"
  | exception
      Address_space.Fault { kind = Address_space.Perm_denied Prot.Write; _ }
    -> ());
  (* Reads survive, and see the pre-revoke store (fault left no
     partial effect). *)
  Alcotest.(check char) "readable, value intact" 'a'
    (Address_space.load_byte a ~pkru:all base)

let test_aspace_pkey_revoke () =
  let a = fresh_mapped () in
  ignore (Address_space.load_byte a ~pkru:all base);
  ignore (Address_space.load_byte a ~pkru:all base);
  Address_space.pkey_mprotect a ~addr:base ~len:4096 (k 6);
  let pkru = Prot.pkru_deny_all_except [ k 0 ] in
  (match Address_space.load_byte a ~pkru base with
  | _ -> Alcotest.fail "expected pkey fault after retag"
  | exception
      Address_space.Fault
        { kind = Address_space.Pkey_denied (Prot.Read, key); _ } ->
      Alcotest.(check int) "faulting key" 6 (Prot.key_to_int key));
  (* The retag revokes nothing allow-all may do. *)
  ignore (Address_space.load_byte a ~pkru:all base)

(* Switching PKRU alone (no mapping change) is enforced on the next
   access. *)
let test_aspace_pkru_switch () =
  let a = fresh_mapped ~pkey:(k 3) () in
  ignore (Address_space.load_byte a ~pkru:all base);
  ignore (Address_space.load_byte a ~pkru:all base);
  let denying = Prot.pkru_deny_all_except [ k 0 ] in
  match Address_space.load_byte a ~pkru:denying base with
  | _ -> Alcotest.fail "expected pkey fault on PKRU switch"
  | exception
      Address_space.Fault { kind = Address_space.Pkey_denied (Prot.Read, _); _ }
    -> ()

let test_aspace_unmap_revoke () =
  let a = fresh_mapped () in
  ignore (Address_space.load_byte a ~pkru:all base);
  ignore (Address_space.load_byte a ~pkru:all base);
  Address_space.unmap a ~addr:base ~len:4096;
  (match Address_space.load_byte a ~pkru:all base with
  | _ -> Alcotest.fail "expected unmapped fault"
  | exception Address_space.Fault { kind = Address_space.Unmapped; _ } -> ());
  (* Pages past the unmapped range are unaffected. *)
  ignore (Address_space.load_byte a ~pkru:all (base + 4096))

(* Demand-zero service fires exactly once per page: the first walk
   populates the page, later walks find it populated. *)
let test_aspace_demand_zero_once () =
  let a = fresh_mapped ~len:(4096 * 2) () in
  let served = ref 0 in
  Address_space.set_fault_handler a
    (Some
       (fun addr ->
         incr served;
         Address_space.populate_page a ~vpn:(Page.vpn_of_addr addr)
           (Bytes.make 4096 '\xCD')));
  for _ = 1 to 5 do
    Alcotest.(check char) "backing data" '\xCD' (Address_space.load_byte a ~pkru:all base)
  done;
  Address_space.store_byte a ~pkru:all (base + 1) 'q';
  Alcotest.(check int) "handler ran once" 1 !served;
  Alcotest.(check int) "one touched fault" 1 (Address_space.touched_fault_count a);
  ignore (Address_space.load_byte a ~pkru:all (base + 4096));
  Alcotest.(check int) "second page faults independently" 2 !served;
  Alcotest.(check (pair int int)) "accesses, touched faults" (7, 2)
    (Address_space.access_count a, Address_space.touched_fault_count a)

(* Exact access accounting: one per byte access, one per page chunk of
   a bulk access, one per exec check; a faulting access, a failed
   check and the mapping calls count nothing. *)
let test_aspace_access_count () =
  let a = fresh_mapped () in
  let count () = Address_space.access_count a in
  ignore (Address_space.load_byte a ~pkru:all base);
  Address_space.store_byte a ~pkru:all (base + 1) 'x';
  Alcotest.(check int) "byte accesses" 2 (count ());
  (* 6 000 bytes from page offset 100 touch two pages. *)
  Address_space.store_bytes a ~pkru:all (base + 100) (Bytes.make 6000 'y');
  Alcotest.(check int) "bulk store: one per page" 4 (count ());
  ignore (Address_space.load_bytes a ~pkru:all (base + 100) 6000);
  Address_space.touch_bytes a ~pkru:all (base + 100) 6000;
  Alcotest.(check int) "touch walks like load" 8 (count ());
  Address_space.store_bytes a ~pkru:all base Bytes.empty;
  Alcotest.(check int) "empty range walks nothing" 8 (count ());
  Address_space.mprotect a ~addr:(base + 4096) ~len:4096 Page.ro;
  Address_space.pkey_mprotect a ~addr:(base + 8192) ~len:4096 (k 5);
  Address_space.unmap a ~addr:(base + (3 * 4096)) ~len:4096;
  Alcotest.(check int) "mapping calls count nothing" 8 (count ());
  let faults f =
    match f () with
    | () -> Alcotest.fail "expected fault"
    | exception Address_space.Fault _ -> ()
  in
  faults (fun () -> Address_space.store_byte a ~pkru:all (base + 4096) 'z');
  faults (fun () ->
      Address_space.touch_bytes a ~pkru:(Prot.pkru_deny_all_except [ k 0 ]) (base + 8192) 10);
  faults (fun () -> Address_space.check_exec a ~pkru:all base);
  Alcotest.(check int) "faults count nothing" 8 (count ());
  (* A bulk access that faults on its second page counted its first. *)
  faults (fun () -> ignore (Address_space.load_bytes a ~pkru:all (base + (3 * 4096) - 2) 4));
  Alcotest.(check int) "chunks before the fault count" 9 (count ());
  Alcotest.(check char) "touch copies nothing" 'y'
    (Address_space.load_byte a ~pkru:all (base + 100))

(* Instruction fetch: page permissions decide, PKRU does not (MPK
   polices data accesses only). *)
let test_aspace_check_exec () =
  let a = Address_space.create () in
  Address_space.map a ~addr:base ~len:4096 ~perm:Page.rx ~pkey:(k 9);
  Address_space.map a ~addr:(base + 4096) ~len:4096 ~perm:Page.rw ~pkey:(k 9);
  let no_keys = Prot.pkru_deny_all_except [] in
  Address_space.check_exec a ~pkru:no_keys (base + 123);
  (match Address_space.load_byte a ~pkru:no_keys base with
  | _ -> Alcotest.fail "expected pkey fault on a data read"
  | exception Address_space.Fault { kind = Address_space.Pkey_denied (Prot.Read, _); _ } -> ());
  (match Address_space.check_exec a ~pkru:all (base + 4096) with
  | () -> Alcotest.fail "expected exec fault on a data page"
  | exception
      Address_space.Fault { addr; kind = Address_space.Perm_denied Prot.Execute } ->
      Alcotest.(check int) "fault address" (base + 4096) addr);
  match Address_space.check_exec a ~pkru:all (base + 8192) with
  | () -> Alcotest.fail "expected unmapped fault"
  | exception Address_space.Fault { kind = Address_space.Unmapped; _ } -> ()

(* [recycle] rewinds a used space to what [create] returns: no mapping,
   no page, no handler, zeroed counters. *)
let test_aspace_recycle_rewinds () =
  let a = fresh_mapped () in
  let served = ref 0 in
  Address_space.set_fault_handler a (Some (fun _ -> incr served));
  Address_space.store_bytes a ~pkru:all base (Bytes.make 5000 'd');
  Alcotest.(check int) "handler served both pages" 2 !served;
  Address_space.recycle a;
  Alcotest.(check (list int)) "pages, bytes, accesses, touched faults" [ 0; 0; 0; 0 ]
    [
      Address_space.page_count a;
      Address_space.mapped_bytes a;
      Address_space.access_count a;
      Address_space.touched_fault_count a;
    ];
  Alcotest.(check bool) "unmapped" false (Address_space.is_mapped a base);
  (match Address_space.load_byte a ~pkru:all base with
  | _ -> Alcotest.fail "expected unmapped fault after recycle"
  | exception Address_space.Fault { kind = Address_space.Unmapped; _ } -> ());
  Address_space.map a ~addr:base ~len:4096 ~perm:Page.rw ~pkey:Prot.default_key;
  Alcotest.(check char) "remapped page is zero" '\000' (Address_space.load_byte a ~pkru:all base);
  Alcotest.(check int) "handler dropped" 2 !served

(* Unmapped and recycled pages park on the page pool; a page taken back
   from it reads as zero and carries its new mapping's rights. *)
let test_aspace_pooled_pages_zero () =
  let a = fresh_mapped ~len:(4096 * 3) () in
  Address_space.store_bytes a ~pkru:all base (Bytes.make (4096 * 3) '\xEE');
  Address_space.unmap a ~addr:base ~len:(4096 * 3);
  Address_space.map a ~addr:base ~len:(4096 * 3) ~perm:Page.ro ~pkey:(k 4);
  Alcotest.(check string) "reads zero after unmap" (String.make (4096 * 3) '\000')
    (Bytes.to_string (Address_space.load_bytes a ~pkru:all base (4096 * 3)));
  (match Address_space.store_byte a ~pkru:all base 'x' with
  | () -> Alcotest.fail "expected write fault on the remapped read-only page"
  | exception Address_space.Fault { kind = Address_space.Perm_denied Prot.Write; _ } -> ());
  Alcotest.(check int) "new key" 4 (Prot.key_to_int (Address_space.key_of a base));
  let b = fresh_mapped () in
  Address_space.store_bytes b ~pkru:all base (Bytes.make 4096 '\xEE');
  Address_space.recycle b;
  Address_space.map b ~addr:base ~len:4096 ~perm:Page.rw ~pkey:Prot.default_key;
  Alcotest.(check string) "reads zero after recycle" (String.make 4096 '\000')
    (Bytes.to_string (Address_space.load_bytes b ~pkru:all base 4096))

(* --- WFD layout --- *)

let test_layout_disjoint_regions () =
  let regions =
    [ Layout.visor_code; Layout.libos_code; Layout.libos_heap; Layout.trampoline ]
    @ List.init 4 Layout.function_slot
  in
  let rec pairwise = function
    | [] -> ()
    | r :: rest ->
        List.iter
          (fun r2 ->
            let overlap =
              r.Layout.base < Layout.region_end r2 && r2.Layout.base < Layout.region_end r
            in
            if overlap then Alcotest.fail "layout regions overlap")
          rest;
        pairwise rest
  in
  pairwise regions

let test_layout_partitions () =
  Alcotest.(check bool) "libos heap is system" true
    (Layout.in_system_partition Layout.libos_heap.Layout.base);
  Alcotest.(check bool) "trampoline is user" true
    (Layout.in_user_partition Layout.trampoline.Layout.base);
  Alcotest.(check bool) "slot 0 is user" true
    (Layout.in_user_partition (Layout.function_slot 0).Layout.base);
  Alcotest.(check bool) "slot 0 is not system" false
    (Layout.in_system_partition (Layout.function_slot 0).Layout.base)

let test_layout_slot_of_addr () =
  let s2 = Layout.function_slot 2 in
  Alcotest.(check (option int)) "mid-slot" (Some 2)
    (Layout.slot_of_addr (s2.Layout.base + 100));
  Alcotest.(check (option int)) "system addr has no slot" None
    (Layout.slot_of_addr Layout.libos_code.Layout.base);
  Alcotest.(check bool) "slot sub-regions inside slot" true
    (Layout.contains s2 (Layout.function_heap 2).Layout.base
    && Layout.contains s2 (Layout.function_stack 2).Layout.base
    && Layout.contains s2 (Layout.function_code 2).Layout.base);
  match Layout.function_slot Layout.function_slot_count with
  | _ -> Alcotest.fail "out-of-range slot"
  | exception Invalid_argument _ -> ()

(* --- allocator --- *)

let test_alloc_basic () =
  let a = Alloc.create ~base:0x1000 ~size:0x10000 () in
  let b1 = Option.get (Alloc.alloc a ~size:100 ~align:8) in
  let b2 = Option.get (Alloc.alloc a ~size:200 ~align:8) in
  Alcotest.(check bool) "distinct" true (b1 <> b2);
  Alcotest.(check int) "allocated" 300 (Alloc.allocated_bytes a);
  Alloc.free a b1;
  Alloc.free a b2;
  Alcotest.(check int) "all free" 0x10000 (Alloc.free_bytes a);
  Alcotest.(check int) "coalesced to one hole" 1 (Alloc.hole_count a)

let test_alloc_alignment () =
  let a = Alloc.create ~base:0x1001 ~size:0x10000 () in
  let b = Option.get (Alloc.alloc a ~size:64 ~align:4096) in
  Alcotest.(check int) "aligned" 0 (b land 4095)

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~size:1024 () in
  Alcotest.(check (option int)) "too big" None (Alloc.alloc a ~size:2048 ~align:8);
  let b = Option.get (Alloc.alloc a ~size:1024 ~align:1) in
  Alcotest.(check (option int)) "full" None (Alloc.alloc a ~size:1 ~align:1);
  Alloc.free a b;
  Alcotest.(check bool) "free makes room" true
    (Alloc.alloc a ~size:1024 ~align:1 <> None)

let test_alloc_double_free () =
  let a = Alloc.create ~base:0 ~size:1024 () in
  let b = Option.get (Alloc.alloc a ~size:16 ~align:8) in
  Alloc.free a b;
  match Alloc.free a b with
  | () -> Alcotest.fail "double free must raise"
  | exception Invalid_argument _ -> ()

let test_alloc_reuse_after_free () =
  (* First-fit must reuse the freed front hole. *)
  let a = Alloc.create ~base:0 ~size:4096 () in
  let b1 = Option.get (Alloc.alloc a ~size:512 ~align:8) in
  let _b2 = Option.get (Alloc.alloc a ~size:512 ~align:8) in
  Alloc.free a b1;
  let b3 = Option.get (Alloc.alloc a ~size:256 ~align:8) in
  Alcotest.(check int) "front reused" b1 b3

let test_alloc_reset () =
  let a = Alloc.create ~base:0 ~size:4096 () in
  ignore (Alloc.alloc a ~size:512 ~align:8);
  Alloc.reset a;
  Alcotest.(check int) "reset frees everything" 4096 (Alloc.free_bytes a);
  Alcotest.(check (list (pair int int))) "no live blocks" [] (Alloc.live_blocks a)

(* qcheck: random alloc/free traces never produce overlapping live
   blocks, and byte accounting stays consistent. *)
let alloc_trace_property =
  QCheck.Test.make ~name:"allocator: no overlap, conserved bytes" ~count:200
    QCheck.(list (pair (int_bound 400) (int_bound 3)))
    (fun ops ->
      let a = Alloc.create ~base:0x4000 ~size:0x8000 () in
      let live = ref [] in
      List.iter
        (fun (size, action) ->
          if action = 0 && !live <> [] then begin
            match !live with
            | addr :: rest ->
                Alloc.free a addr;
                live := rest
            | [] -> ()
          end
          else begin
            let align = List.nth [ 1; 8; 64; 4096 ] action in
            match Alloc.alloc a ~size:(size + 1) ~align with
            | Some addr -> live := addr :: !live
            | None -> ()
          end)
        ops;
      let blocks = Alloc.live_blocks a in
      let rec no_overlap = function
        | (a1, s1) :: ((a2, _) :: _ as rest) -> a1 + s1 <= a2 && no_overlap rest
        | [ _ ] | [] -> true
      in
      no_overlap blocks
      && Alloc.allocated_bytes a + Alloc.free_bytes a <= 0x8000
      && List.for_all (fun (addr, s) -> addr >= 0x4000 && addr + s <= 0xC000) blocks)

let full_free_coalesces_property =
  QCheck.Test.make ~name:"allocator: freeing everything leaves one hole" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 500))
    (fun sizes ->
      let a = Alloc.create ~base:0 ~size:0x10000 () in
      let blocks = List.filter_map (fun s -> Alloc.alloc a ~size:s ~align:8) sizes in
      List.iter (Alloc.free a) blocks;
      Alloc.hole_count a = 1 && Alloc.free_bytes a = 0x10000)

(* --- PKRU against a 32-bit reference model --- *)

(* The register as the SDM defines it, on [int32]: AD = bit 2k, WD =
   bit 2k+1. *)
module Pkru_ref = struct
  let ad key = Int32.shift_left 1l (2 * key)
  let wd key = Int32.shift_left 1l ((2 * key) + 1)
  let deny_all = -1l
  let allow p key = Int32.logand p (Int32.lognot (Int32.logor (ad key) (wd key)))
  let deny p key = Int32.logor p (Int32.logor (ad key) (wd key))
  let deny_write p key = Int32.logor (allow p key) (wd key)
  let can_read p key = Int32.logand p (ad key) = 0l
  let can_write p key = Int32.logand p (Int32.logor (ad key) (wd key)) = 0l
end

let test_pkru_deny_all_word () =
  Alcotest.(check int32) "deny-all is -1l" (-1l)
    (Prot.to_int32 (Prot.pkru_deny_all_except []));
  Alcotest.(check int32) "allow-all is 0l" 0l (Prot.to_int32 Prot.pkru_allow_all)

let pkru_model_property =
  QCheck.Test.make ~name:"pkru: rights word agrees with a 32-bit reference" ~count:500
    QCheck.(
      triple bool
        (list_of_size Gen.(int_range 0 16) (int_bound 15))
        (list_of_size Gen.(int_range 0 24) (pair (int_bound 2) (int_bound 15))))
    (fun (from_allow_all, keys, ops) ->
      let p0, r0 =
        if from_allow_all then (Prot.pkru_allow_all, 0l)
        else
          ( Prot.pkru_deny_all_except (List.map k keys),
            List.fold_left Pkru_ref.allow Pkru_ref.deny_all keys )
      in
      let step (p, r) (op, key) =
        match op with
        | 0 -> (Prot.allow p (k key), Pkru_ref.allow r key)
        | 1 -> (Prot.deny p (k key), Pkru_ref.deny r key)
        | _ -> (Prot.deny_write p (k key), Pkru_ref.deny_write r key)
      in
      let agree (p, r) =
        Int32.equal (Prot.to_int32 p) r
        && List.for_all
             (fun key ->
               Prot.can_read p (k key) = Pkru_ref.can_read r key
               && Prot.can_write p (k key) = Pkru_ref.can_write r key)
             (List.init 16 Fun.id)
      in
      let rec go pr = function
        | [] -> agree pr
        | op :: rest -> agree pr && go (step pr op) rest
      in
      go (p0, r0) ops)

(* --- Fresh and recycled spaces agree --- *)

type aspace_op =
  | Map of int * int * int * int  (* first page, pages, perm index, key *)
  | Unmap of int * int
  | Mprotect of int * int * int
  | Pkey of int * int * int
  | Load of int * int  (* byte offset in the window, pkru index *)
  | Store of int * int * char
  | Load_range of int * int * int  (* offset, length, pkru index *)

let window_pages = 12
let perms = [| Page.rw; Page.ro; Page.rx; { Page.read = false; write = false; exec = false } |]

(* Rights words a thread could hold: everything, the system key only,
   and one or two user keys with and without write rights. *)
let pkrus =
  [|
    Prot.pkru_allow_all;
    Prot.pkru_deny_all_except [ k 0 ];
    Prot.pkru_deny_all_except [ k 1; k 2 ];
    Prot.deny_write (Prot.pkru_deny_all_except [ k 1; k 2 ]) (k 1);
    Prot.pkru_deny_all_except [ k 3 ];
  |]

let aspace_op_gen =
  let open QCheck.Gen in
  let page = int_bound (window_pages - 1) in
  let pages = int_range 1 4 in
  let off = int_bound ((window_pages * 4096) - 1) in
  frequency
    [
      (3, map (fun (((a, b), c), d) -> Map (a, b, c, d))
            (pair (pair (pair page pages) (int_bound 3)) (int_bound 3)));
      (1, map2 (fun a b -> Unmap (a, b)) page pages);
      (1, map3 (fun a b c -> Mprotect (a, b, c)) page pages (int_bound 3));
      (1, map3 (fun a b c -> Pkey (a, b, c)) page pages (int_bound 3));
      (6, map2 (fun a b -> Load (a, b)) off (int_bound 4));
      (4, map3 (fun a b c -> Store (a, b, c)) off (int_bound 4) printable);
      (2, map3 (fun a b c -> Load_range (a, b, c)) off (int_range 1 9000) (int_bound 4));
    ]

let show_aspace_op = function
  | Map (a, b, c, d) -> Printf.sprintf "map %d+%d perm%d key%d" a b c d
  | Unmap (a, b) -> Printf.sprintf "unmap %d+%d" a b
  | Mprotect (a, b, c) -> Printf.sprintf "mprotect %d+%d perm%d" a b c
  | Pkey (a, b, c) -> Printf.sprintf "pkey %d+%d key%d" a b c
  | Load (a, b) -> Printf.sprintf "load %d pkru%d" a b
  | Store (a, b, c) -> Printf.sprintf "store %d pkru%d %C" a b c
  | Load_range (a, b, c) -> Printf.sprintf "load %d+%d pkru%d" a b c

let aspace_stream =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_aspace_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) aspace_op_gen)

(* Run a stream, returning what each operation answered. *)
let run_aspace_stream a ops =
  let page i = base + (i * 4096) in
  let outcome f =
    match f () with
    | s -> s
    | exception Address_space.Fault { addr; kind } ->
        Printf.sprintf "fault@%x:%s" addr
          (match kind with
          | Address_space.Unmapped -> "unmapped"
          | Address_space.Perm_denied _ -> "perm"
          | Address_space.Pkey_denied (_, key) -> Printf.sprintf "pkey%d" (Prot.key_to_int key))
    | exception Invalid_argument _ -> "invalid"
  in
  List.map
    (fun op ->
      outcome (fun () ->
          match op with
          | Map (p, n, perm, key) ->
              Address_space.map a ~addr:(page p) ~len:(n * 4096) ~perm:perms.(perm)
                ~pkey:(k key);
              "mapped"
          | Unmap (p, n) ->
              Address_space.unmap a ~addr:(page p) ~len:(n * 4096);
              "unmapped"
          | Mprotect (p, n, perm) ->
              Address_space.mprotect a ~addr:(page p) ~len:(n * 4096) perms.(perm);
              "protected"
          | Pkey (p, n, key) ->
              Address_space.pkey_mprotect a ~addr:(page p) ~len:(n * 4096) (k key);
              "keyed"
          | Load (off, pk) -> String.make 1 (Address_space.load_byte a ~pkru:pkrus.(pk) (base + off))
          | Store (off, pk, c) ->
              Address_space.store_byte a ~pkru:pkrus.(pk) (base + off) c;
              "stored"
          | Load_range (off, len, pk) ->
              Digest.to_hex
                (Digest.bytes (Address_space.load_bytes a ~pkru:pkrus.(pk) (base + off) len))))
    ops

(* Outcomes, access count and demand-fault count of one stream on [a]. *)
let observe_aspace_stream a ops =
  let outcomes = run_aspace_stream a ops in
  (outcomes, Address_space.access_count a, Address_space.touched_fault_count a)

let recycled_differential =
  QCheck.Test.make ~name:"aspace: fresh and recycled spaces agree" ~count:300
    (QCheck.pair aspace_stream aspace_stream)
    (fun (ops, earlier) ->
      (* A recycled space first runs an unrelated stream, so its pages
         go back to the page pool written. *)
      let recycled = Address_space.create () in
      ignore (run_aspace_stream recycled earlier);
      Address_space.recycle recycled;
      observe_aspace_stream (Address_space.create ()) ops
      = observe_aspace_stream recycled ops)

(* Minor words per [Address_space.create]: its record and an empty
   page table. *)
let create_words () =
  ignore (Address_space.create ());
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Address_space.create ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let create_allocates_under bound () =
  let per_create = create_words () in
  if per_create >= bound then
    Alcotest.failf "Address_space.create allocates %.0f minor words (bound %.0f)" per_create
      bound

let suite =
  [
    Alcotest.test_case "protection keys" `Quick test_prot_keys;
    Alcotest.test_case "pkru rights" `Quick test_pkru_rights;
    Alcotest.test_case "pkru deny-all-except" `Quick test_pkru_deny_all_except;
    Alcotest.test_case "pkru deny-all word" `Quick test_pkru_deny_all_word;
    QCheck_alcotest.to_alcotest pkru_model_property;
    Alcotest.test_case "page geometry" `Quick test_page_geometry;
    Alcotest.test_case "layout disjoint regions" `Quick test_layout_disjoint_regions;
    Alcotest.test_case "layout partitions" `Quick test_layout_partitions;
    Alcotest.test_case "layout slot_of_addr" `Quick test_layout_slot_of_addr;
    Alcotest.test_case "aspace roundtrip" `Quick test_aspace_roundtrip;
    Alcotest.test_case "aspace cross-page" `Quick test_aspace_cross_page;
    Alcotest.test_case "aspace unmapped fault" `Quick test_aspace_unmapped_fault;
    Alcotest.test_case "aspace permission fault" `Quick test_aspace_perm_fault;
    Alcotest.test_case "aspace pkey fault" `Quick test_aspace_pkey_fault;
    Alcotest.test_case "aspace pkey_mprotect" `Quick test_aspace_pkey_mprotect;
    Alcotest.test_case "aspace map conflicts" `Quick test_aspace_map_conflicts;
    Alcotest.test_case "demand paging" `Quick test_demand_paging;
    Alcotest.test_case "aspace mprotect revoke" `Quick test_aspace_mprotect_revoke;
    Alcotest.test_case "aspace pkey revoke" `Quick test_aspace_pkey_revoke;
    Alcotest.test_case "aspace pkru switch" `Quick test_aspace_pkru_switch;
    Alcotest.test_case "aspace unmap revoke" `Quick test_aspace_unmap_revoke;
    Alcotest.test_case "aspace demand-zero once" `Quick test_aspace_demand_zero_once;
    Alcotest.test_case "aspace access count" `Quick test_aspace_access_count;
    Alcotest.test_case "aspace check_exec" `Quick test_aspace_check_exec;
    QCheck_alcotest.to_alcotest recycled_differential;
    Alcotest.test_case "aspace create allocates < 600 minor words" `Quick
      (create_allocates_under 600.0);
    Alcotest.test_case "aspace recycle rewinds" `Quick test_aspace_recycle_rewinds;
    Alcotest.test_case "aspace pooled pages read zero" `Quick test_aspace_pooled_pages_zero;
    Alcotest.test_case "alloc basic" `Quick test_alloc_basic;
    Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
    Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "alloc double free" `Quick test_alloc_double_free;
    Alcotest.test_case "alloc reuse after free" `Quick test_alloc_reuse_after_free;
    Alcotest.test_case "alloc reset" `Quick test_alloc_reset;
    QCheck_alcotest.to_alcotest alloc_trace_property;
    QCheck_alcotest.to_alcotest full_free_coalesces_property;
    Alcotest.test_case "aspace create allocates < 120 minor words" `Quick
      (create_allocates_under 120.0);
  ]
