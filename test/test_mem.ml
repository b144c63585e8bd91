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
  Address_space.map aspace ~addr:base ~len ?perm ?pkey ();
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

let test_aspace_int64 () =
  let aspace = fresh_mapped () in
  (* Straddling a page boundary on purpose. *)
  Address_space.store_int64 aspace ~pkru:all (base + 4090) 0x1122334455667788L;
  Alcotest.(check int64) "int64 roundtrip" 0x1122334455667788L
    (Address_space.load_int64 aspace ~pkru:all (base + 4090))

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
  (match Address_space.map aspace ~addr:base ~len:4096 () with
  | () -> Alcotest.fail "double map must fail"
  | exception Invalid_argument _ -> ());
  (match Address_space.map aspace ~addr:(base + 1) ~len:4096 () with
  | () -> Alcotest.fail "unaligned map must fail"
  | exception Invalid_argument _ -> ());
  Address_space.unmap aspace ~addr:base ~len:4096;
  (* Now the first page can be mapped again. *)
  Address_space.map aspace ~addr:base ~len:4096 ();
  Alcotest.(check int) "page count stable" 4 (Address_space.page_count aspace)

let test_aspace_blit_fill () =
  let aspace = fresh_mapped () in
  let data = Bytes.init 5000 (fun i -> Char.chr (i mod 251)) in
  Address_space.store_bytes aspace ~pkru:all base data;
  Address_space.blit aspace ~pkru:all ~src:base ~dst:(base + 6000) ~len:5000;
  Alcotest.(check bytes) "blit copies" data
    (Address_space.load_bytes aspace ~pkru:all (base + 6000) 5000);
  Address_space.fill aspace ~pkru:all ~addr:base ~len:100 'z';
  Alcotest.(check string) "fill" (String.make 100 'z')
    (Bytes.to_string (Address_space.load_bytes aspace ~pkru:all base 100))

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

(* --- software TLB --- *)

(* A warmed TLB entry must not outlive an mprotect: the generation bump
   forces a re-walk, so the revoked right faults exactly like the slow
   path. *)
let test_tlb_mprotect_revoke () =
  let run tlb =
    let a = Address_space.create ~tlb () in
    Address_space.map a ~addr:base ~len:4096 ();
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
  in
  run true;
  run false

let test_tlb_pkey_revoke () =
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
  (* Same pkru as the warm entry still works: the flush only forces a
     re-walk, it does not revoke anything allow-all may do. *)
  ignore (Address_space.load_byte a ~pkru:all base)

(* Switching PKRU alone (no flush happens) must also be enforced: the
   entry is tagged with the fill-time PKRU, so a different rights word
   misses and takes the fully-checked walk. *)
let test_tlb_pkru_switch () =
  let a = fresh_mapped ~pkey:(k 3) () in
  ignore (Address_space.load_byte a ~pkru:all base);
  ignore (Address_space.load_byte a ~pkru:all base);
  let denying = Prot.pkru_deny_all_except [ k 0 ] in
  match Address_space.load_byte a ~pkru:denying base with
  | _ -> Alcotest.fail "expected pkey fault on PKRU switch"
  | exception
      Address_space.Fault { kind = Address_space.Pkey_denied (Prot.Read, _); _ }
    -> ()

let test_tlb_unmap_revoke () =
  let a = fresh_mapped () in
  ignore (Address_space.load_byte a ~pkru:all base);
  ignore (Address_space.load_byte a ~pkru:all base);
  Address_space.unmap a ~addr:base ~len:4096;
  (match Address_space.load_byte a ~pkru:all base with
  | _ -> Alcotest.fail "expected unmapped fault"
  | exception Address_space.Fault { kind = Address_space.Unmapped; _ } -> ());
  (* Pages past the unmapped range are unaffected. *)
  ignore (Address_space.load_byte a ~pkru:all (base + 4096))

(* Demand-zero service must fire exactly once per page whether or not
   the TLB is on: the walk populates the page before it can enter the
   TLB, so hits can never skip a pending fill. *)
let test_tlb_demand_zero_once () =
  let run tlb =
    let a = Address_space.create ~tlb () in
    Address_space.map a ~addr:base ~len:(4096 * 2) ();
    let served = ref 0 in
    Address_space.set_fault_handler a
      (Some
         (fun addr ->
           incr served;
           Address_space.populate_page a ~vpn:(Page.vpn_of_addr addr)
             (Bytes.make 4096 '\xCD')));
    for _ = 1 to 5 do
      ignore (Address_space.load_byte a ~pkru:all base)
    done;
    Address_space.store_byte a ~pkru:all (base + 1) 'q';
    Alcotest.(check int) "handler ran once" 1 !served;
    Alcotest.(check int) "one touched fault" 1
      (Address_space.touched_fault_count a);
    ignore (Address_space.load_byte a ~pkru:all (base + 4096));
    Alcotest.(check int) "second page faults independently" 2 !served;
    (Address_space.access_count a, Address_space.touched_fault_count a)
  in
  let with_tlb = run true and without_tlb = run false in
  Alcotest.(check (pair int int))
    "accounting identical with and without TLB" without_tlb with_tlb

(* Exact hit/miss/flush accounting for a scripted access sequence. *)
let test_tlb_counters () =
  let a = Address_space.create () in
  Address_space.map a ~addr:base ~len:(4096 * 2) ();
  let f0 = Address_space.tlb_flush_count a in
  ignore (Address_space.load_byte a ~pkru:all base);
  (* miss *)
  ignore (Address_space.load_byte a ~pkru:all (base + 1));
  (* hit *)
  Address_space.store_byte a ~pkru:all (base + 2) 'x';
  (* hit *)
  ignore (Address_space.load_byte a ~pkru:all (base + 4096));
  (* miss *)
  ignore (Address_space.load_byte a ~pkru:all base);
  (* hit *)
  Alcotest.(check int) "misses" 2 (Address_space.tlb_miss_count a);
  Alcotest.(check int) "hits" 3 (Address_space.tlb_hit_count a);
  Alcotest.(check int) "accesses = hits + misses"
    (Address_space.access_count a)
    (Address_space.tlb_hit_count a + Address_space.tlb_miss_count a);
  Address_space.mprotect a ~addr:base ~len:4096 Page.rw;
  Alcotest.(check int) "mprotect flushes" (f0 + 1)
    (Address_space.tlb_flush_count a);
  ignore (Address_space.load_byte a ~pkru:all base);
  (* miss: generation bumped *)
  Alcotest.(check int) "re-walk after flush" 3
    (Address_space.tlb_miss_count a)

(* A TLB-disabled space counts no hits and the same accesses. *)
let test_tlb_disabled_equivalence () =
  let run tlb =
    let a = Address_space.create ~tlb () in
    Address_space.map a ~addr:base ~len:(4096 * 4) ();
    let data = Bytes.init 6000 (fun i -> Char.chr (i mod 256)) in
    Address_space.store_bytes a ~pkru:all base data;
    let got = Address_space.load_bytes a ~pkru:all base 6000 in
    Alcotest.(check bytes) "data identical" data got;
    Address_space.access_count a
  in
  Alcotest.(check int) "access counts identical" (run false) (run true);
  let a = Address_space.create ~tlb:false () in
  Address_space.map a ~addr:base ~len:4096 ();
  ignore (Address_space.load_byte a ~pkru:all base);
  ignore (Address_space.load_byte a ~pkru:all base);
  Alcotest.(check int) "no hits when disabled" 0 (Address_space.tlb_hit_count a);
  Alcotest.(check int) "no misses when disabled" 0
    (Address_space.tlb_miss_count a)

(* Global Sim.Stats counters: misses are pushed immediately, hits are
   derived and synced on flush / tlb_hit_count reads. *)
let test_tlb_stats_counters () =
  let a = fresh_mapped () in
  let miss0 = Sim.Stats.counter_value "mem.tlb.miss" in
  let hit0 = Sim.Stats.counter_value "mem.tlb.hit" in
  ignore (Address_space.load_byte a ~pkru:all base);
  (* miss *)
  ignore (Address_space.load_byte a ~pkru:all base);
  (* hit *)
  ignore (Address_space.load_byte a ~pkru:all base);
  (* hit *)
  Alcotest.(check int) "global miss counter immediate" (miss0 + 1)
    (Sim.Stats.counter_value "mem.tlb.miss");
  Alcotest.(check int) "hit counter deferred" hit0
    (Sim.Stats.counter_value "mem.tlb.hit");
  Alcotest.(check int) "local hits" 2 (Address_space.tlb_hit_count a);
  Alcotest.(check int) "hit counter synced by read" (hit0 + 2)
    (Sim.Stats.counter_value "mem.tlb.hit");
  (* A flush also syncs pending hits. *)
  ignore (Address_space.load_byte a ~pkru:all (base + 1));
  Address_space.mprotect a ~addr:base ~len:4096 Page.rw;
  Alcotest.(check int) "hit counter synced by flush" (hit0 + 3)
    (Sim.Stats.counter_value "mem.tlb.hit")

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

let suite =
  [
    Alcotest.test_case "protection keys" `Quick test_prot_keys;
    Alcotest.test_case "pkru rights" `Quick test_pkru_rights;
    Alcotest.test_case "pkru deny-all-except" `Quick test_pkru_deny_all_except;
    Alcotest.test_case "page geometry" `Quick test_page_geometry;
    Alcotest.test_case "aspace roundtrip" `Quick test_aspace_roundtrip;
    Alcotest.test_case "aspace cross-page" `Quick test_aspace_cross_page;
    Alcotest.test_case "aspace int64" `Quick test_aspace_int64;
    Alcotest.test_case "aspace unmapped fault" `Quick test_aspace_unmapped_fault;
    Alcotest.test_case "aspace permission fault" `Quick test_aspace_perm_fault;
    Alcotest.test_case "aspace pkey fault" `Quick test_aspace_pkey_fault;
    Alcotest.test_case "aspace pkey_mprotect" `Quick test_aspace_pkey_mprotect;
    Alcotest.test_case "aspace map conflicts" `Quick test_aspace_map_conflicts;
    Alcotest.test_case "aspace blit/fill" `Quick test_aspace_blit_fill;
    Alcotest.test_case "demand paging" `Quick test_demand_paging;
    Alcotest.test_case "tlb mprotect revoke" `Quick test_tlb_mprotect_revoke;
    Alcotest.test_case "tlb pkey revoke" `Quick test_tlb_pkey_revoke;
    Alcotest.test_case "tlb pkru switch" `Quick test_tlb_pkru_switch;
    Alcotest.test_case "tlb unmap revoke" `Quick test_tlb_unmap_revoke;
    Alcotest.test_case "tlb demand-zero once" `Quick test_tlb_demand_zero_once;
    Alcotest.test_case "tlb counters" `Quick test_tlb_counters;
    Alcotest.test_case "tlb disabled equivalence" `Quick
      test_tlb_disabled_equivalence;
    Alcotest.test_case "tlb stats counters" `Quick test_tlb_stats_counters;
    Alcotest.test_case "layout disjoint regions" `Quick test_layout_disjoint_regions;
    Alcotest.test_case "layout partitions" `Quick test_layout_partitions;
    Alcotest.test_case "layout slot_of_addr" `Quick test_layout_slot_of_addr;
    Alcotest.test_case "alloc basic" `Quick test_alloc_basic;
    Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
    Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "alloc double free" `Quick test_alloc_double_free;
    Alcotest.test_case "alloc reuse after free" `Quick test_alloc_reuse_after_free;
    Alcotest.test_case "alloc reset" `Quick test_alloc_reset;
    QCheck_alcotest.to_alcotest alloc_trace_property;
    QCheck_alcotest.to_alcotest full_free_coalesces_property;
  ]
