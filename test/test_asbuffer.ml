(* Tests for as-std and AsBuffer: the syscall path, reference passing,
   fan-out/fan-in, the file fallback and the IFI overhead. *)

open Sim
open Alloystack_core

let fresh_ctx ?features ?(language = Workflow.Rust) () =
  let proc_table = Hostos.Process.create_table () in
  let clock = Clock.create () in
  let wfd = Wfd.create ?features ~proc_table ~clock ~workflow_name:"t" () in
  let thread = Wfd.spawn_function_thread wfd ~clock:(Clock.create ()) in
  (Asstd.make_ctx wfd thread language, wfd)

let second_fn ctx =
  let wfd = ctx.Asstd.wfd in
  let thread = Wfd.spawn_function_thread wfd ~clock:(Clock.create ()) in
  Asstd.make_ctx wfd thread ctx.Asstd.language

(* --- as-std syscall path --- *)

let test_sys_loads_on_demand () =
  let ctx, wfd = fresh_ctx () in
  Alcotest.(check bool) "stdio not loaded" false (Wfd.is_loaded wfd "stdio");
  Asstd.println ctx "hi";
  Alcotest.(check bool) "stdio loaded by call" true (Wfd.is_loaded wfd "stdio");
  Alcotest.(check string) "printed" "hi\n" (Libos_stdio.output wfd);
  Alcotest.(check int) "one miss" 1 wfd.Wfd.entry_misses;
  Asstd.println ctx "again";
  Alcotest.(check int) "then hits" 1 wfd.Wfd.entry_hits

let test_sys_crosses_trampoline () =
  let ctx, wfd = fresh_ctx () in
  Asstd.println ctx "x";
  Alcotest.(check int) "trampoline used" 1 wfd.Wfd.trampoline_crossings;
  Alcotest.(check bool) "back in user mode" false (Trampoline.in_system ctx.Asstd.thread)

let test_file_api () =
  let ctx, _ = fresh_ctx () in
  Asstd.write_whole_file ctx "/in.txt" (Bytes.of_string "content");
  Alcotest.(check bool) "exists" true (Asstd.file_exists ctx "/in.txt");
  Alcotest.(check bytes) "read back" (Bytes.of_string "content")
    (Asstd.read_whole_file ctx "/in.txt");
  let fd = Asstd.open_file ctx ~create:true "/out.txt" in
  ignore (Asstd.write_fd ctx ~fd (Bytes.of_string "fd-write"));
  Asstd.close_fd ctx ~fd;
  let fd = Asstd.open_file ctx "/out.txt" in
  Alcotest.(check bytes) "fd roundtrip" (Bytes.of_string "fd-write")
    (Asstd.read_fd ctx ~fd ~len:100);
  (* Errors surface as Errno.Error. *)
  match Asstd.open_file ctx "/nope" with
  | _ -> Alcotest.fail "open missing must raise"
  | exception Errno.Error (Errno.Enoent, _) -> ()

let test_now_and_compute () =
  let ctx, _ = fresh_ctx () in
  let t1 = Asstd.now_ns ctx in
  Asstd.compute ctx (Units.ms 3);
  let t2 = Asstd.now_ns ctx in
  Alcotest.(check bool) "compute advanced virtual time" true
    (Int64.sub t2 t1 >= 3_000_000L)

let test_compute_factor_python () =
  let ctx, _ = fresh_ctx ~language:Workflow.Python () in
  let ctx = Asstd.with_runtime ctx Wasm.Runtime.wasmtime in
  let before = Clock.now ctx.Asstd.thread.Wfd.clock in
  Asstd.compute ctx (Units.ms 1);
  let spent = Units.sub (Clock.now ctx.Asstd.thread.Wfd.clock) before in
  (* Python through Wasmtime: > 20x native. *)
  Alcotest.(check bool) "python factor" true (Units.( > ) spent (Units.ms 20))

let test_phase_accounting () =
  let ctx, _ = fresh_ctx () in
  Asstd.in_phase ctx "compute" (fun () -> Asstd.compute ctx (Units.ms 2));
  Asstd.in_phase ctx "compute" (fun () -> Asstd.compute ctx (Units.ms 3));
  Asstd.in_phase ctx "io" (fun () -> Asstd.compute ctx (Units.ms 1));
  Alcotest.(check bool) "accumulates" true
    (Units.equal (Asstd.phase_time ctx "compute") (Units.ms 5));
  Alcotest.(check bool) "unknown phase is zero" true
    (Units.equal (Asstd.phase_time ctx "zz") Units.zero)

(* --- AsBuffer: the Fig. 8 demo --- *)

let test_asbuffer_fig8_demo () =
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  let data =
    Fndata.Record [ ("name", Fndata.Str "Euro"); ("year", Fndata.Int 2025L) ]
  in
  ignore (Asbuffer.with_slot ctx_a ~slot:"Conference" data);
  let got =
    Asbuffer.from_slot ctx_b ~slot:"Conference"
      ~expect:(Fndata.Record [ ("name", Fndata.Str ""); ("year", Fndata.Int 0L) ])
  in
  (match (Fndata.record_get got "name", Fndata.record_get got "year") with
  | Fndata.Str "Euro", Fndata.Int 2025L -> ()
  | _ -> Alcotest.fail "EuroSys 2025 expected");
  (* The slot was consumed. *)
  match Asbuffer.from_slot ctx_b ~slot:"Conference" ~expect:data with
  | _ -> Alcotest.fail "second acquire must fail"
  | exception Errno.Error (Errno.Enoent, _) -> ()

let test_asbuffer_fingerprint_protects () =
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  ignore (Asbuffer.with_slot ctx_a ~slot:"s" (Fndata.Int 1L));
  match Asbuffer.from_slot ctx_b ~slot:"s" ~expect:(Fndata.Str "") with
  | _ -> Alcotest.fail "wrong type must fail"
  | exception Errno.Error (Errno.Einval, _) -> ()

let test_asbuffer_raw_roundtrip () =
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  let payload = Sim.Rng.bytes (Sim.Rng.create 3) 100_000 in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"bulk" payload);
  Alcotest.(check bytes) "bulk roundtrip" payload (Asbuffer.from_slot_raw ctx_b ~slot:"bulk")

let test_asbuffer_fan_out_fan_in () =
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  let ctx_c = second_fn ctx_a in
  (* Fan-out: A creates two buffers for two downstreams. *)
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"to_b" (Bytes.of_string "for-b"));
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"to_c" (Bytes.of_string "for-c"));
  Alcotest.(check bytes) "b gets its slot" (Bytes.of_string "for-b")
    (Asbuffer.from_slot_raw ctx_b ~slot:"to_b");
  Alcotest.(check bytes) "c gets its slot" (Bytes.of_string "for-c")
    (Asbuffer.from_slot_raw ctx_c ~slot:"to_c");
  (* Fan-in: B and C send to A. *)
  ignore (Asbuffer.with_slot_raw ctx_b ~slot:"from_b" (Bytes.of_string "1"));
  ignore (Asbuffer.with_slot_raw ctx_c ~slot:"from_c" (Bytes.of_string "2"));
  Alcotest.(check bytes) "fan-in 1" (Bytes.of_string "1")
    (Asbuffer.from_slot_raw ctx_a ~slot:"from_b");
  Alcotest.(check bytes) "fan-in 2" (Bytes.of_string "2")
    (Asbuffer.from_slot_raw ctx_a ~slot:"from_c")

let test_asbuffer_timing_16mb () =
  (* Fig. 11: 16MB transfer (write + read) on the Rust path should cost
     ~951us of virtual time. *)
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  (* Warm up the mm module so loading does not pollute the measure. *)
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"warm" (Bytes.make 1 'x'));
  ignore (Asbuffer.from_slot_raw ctx_b ~slot:"warm");
  let payload = Bytes.make (Units.mib 16) 'd' in
  let a0 = Clock.now ctx_a.Asstd.thread.Wfd.clock in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"big" payload);
  let write_time = Units.sub (Clock.now ctx_a.Asstd.thread.Wfd.clock) a0 in
  let b0 = Clock.now ctx_b.Asstd.thread.Wfd.clock in
  ignore (Asbuffer.from_slot_raw ctx_b ~slot:"big");
  let read_time = Units.sub (Clock.now ctx_b.Asstd.thread.Wfd.clock) b0 in
  let total_us = Units.to_us (Units.add write_time read_time) in
  Alcotest.(check bool)
    (Printf.sprintf "16MB transfer ~951us (got %.0fus)" total_us)
    true
    (total_us > 900.0 && total_us < 1010.0)

let test_asbuffer_ifi_overhead () =
  let run features =
    let ctx_a, _ = fresh_ctx ~features () in
    let ctx_b = second_fn ctx_a in
    ignore (Asbuffer.with_slot_raw ctx_a ~slot:"warm" (Bytes.make 1 'x'));
    ignore (Asbuffer.from_slot_raw ctx_b ~slot:"warm");
    let payload = Bytes.make 4096 'd' in
    let a0 = Clock.now ctx_a.Asstd.thread.Wfd.clock in
    ignore (Asbuffer.with_slot_raw ctx_a ~slot:"p" payload);
    let b0 = Clock.now ctx_b.Asstd.thread.Wfd.clock in
    ignore (Asbuffer.from_slot_raw ctx_b ~slot:"p");
    Units.add
      (Units.sub (Clock.now ctx_a.Asstd.thread.Wfd.clock) a0)
      (Units.sub (Clock.now ctx_b.Asstd.thread.Wfd.clock) b0)
  in
  let base = run Wfd.default_features in
  let ifi = run { Wfd.default_features with Wfd.ifi = true } in
  Alcotest.(check bool) "IFI costs more" true (Units.( > ) ifi base);
  let overhead = Units.to_us (Units.sub ifi base) in
  (* ~1.2us fixed per side at 4KB => ~2.4us total, the +33.7% of
     Fig. 11 on a ~7us transfer. *)
  Alcotest.(check bool)
    (Printf.sprintf "IFI overhead ~2.4us (got %.1fus)" overhead)
    true
    (overhead > 1.8 && overhead < 3.5)

let test_asbuffer_file_fallback () =
  (* ref_passing disabled: data goes through the FAT image but still
     arrives intact (the Fig. 14 "base" configuration). *)
  let features = { Wfd.default_features with Wfd.ref_passing = false } in
  let ctx_a, wfd = fresh_ctx ~features () in
  let ctx_b = second_fn ctx_a in
  let payload = Bytes.of_string "via the filesystem" in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"s" payload);
  Alcotest.(check bool) "file exists in image" true
    (wfd.Wfd.vfs.Fsim.Vfs.exists "/.asbuffer/s");
  Alcotest.(check bytes) "fallback roundtrip" payload
    (Asbuffer.from_slot_raw ctx_b ~slot:"s");
  Alcotest.(check bool) "mm never loaded" false (Wfd.is_loaded wfd "mm")

let test_asbuffer_file_fallback_slower () =
  let time_with features =
    let ctx_a, _ = fresh_ctx ~features () in
    let ctx_b = second_fn ctx_a in
    let payload = Bytes.make (Units.mib 4) 'z' in
    ignore (Asbuffer.with_slot_raw ctx_a ~slot:"s" payload);
    ignore (Asbuffer.from_slot_raw ctx_b ~slot:"s");
    Units.add (Clock.now ctx_a.Asstd.thread.Wfd.clock) (Clock.now ctx_b.Asstd.thread.Wfd.clock)
  in
  let ref_pass = time_with Wfd.default_features in
  let file = time_with { Wfd.default_features with Wfd.ref_passing = false } in
  Alcotest.(check bool) "files much slower than references" true
    (Units.( > ) file (Units.scale ref_pass 2.0))

let test_asbuffer_memory_recovered () =
  let ctx_a, wfd = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"s" (Bytes.make 100_000 'm'));
  ignore (Asbuffer.from_slot_raw ctx_b ~slot:"s");
  Libos.load_module wfd ~clock:(Clock.create ()) "mm";
  Alcotest.(check int) "heap fully recovered" 0 (Libos_mm.live_buffer_bytes wfd)

let asbuffer_roundtrip_property =
  QCheck.Test.make ~name:"asbuffer: random payloads and slot names roundtrip" ~count:60
    QCheck.(pair (string_of_size (Gen.int_range 1 20)) (string_of_size (Gen.int_range 0 50_000)))
    (fun (slot, payload) ->
      QCheck.assume (slot <> "");
      let ctx_a, _ = fresh_ctx () in
      let ctx_b = second_fn ctx_a in
      ignore (Asbuffer.with_slot_raw ctx_a ~slot (Bytes.of_string payload));
      Bytes.to_string (Asbuffer.from_slot_raw ctx_b ~slot) = payload)

(* --- the hand-over: the receiver takes the producer's bytes --- *)

let test_asbuffer_raw_hands_over () =
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  let payload = Bytes.make 10_000 'h' in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"s" payload);
  Alcotest.(check bool) "the very bytes sent" true (Asbuffer.from_slot_raw ctx_b ~slot:"s" == payload)

(* Every word the GC allocates, direct major allocations included: the
   minor count from [Gc.minor_words], which is exact on OCaml 5.1. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_asbuffer_receive_allocation () =
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"warm" (Bytes.make 1 'x'));
  ignore (Asbuffer.from_slot_raw ctx_b ~slot:"warm");
  let payload = Bytes.make (Units.mib 1) 'm' in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"s" payload);
  let w0 = allocated_words () in
  ignore (Sys.opaque_identity (Asbuffer.from_slot_raw ctx_b ~slot:"s"));
  let words = allocated_words () -. w0 in
  (* A copy of the pages alone is 131 072 words. *)
  Alcotest.(check bool)
    (Printf.sprintf "1 MiB receive allocates < 1 000 words (got %.0f)" words)
    true (words < 1_000.0)

let test_asbuffer_pkey_denied_receiver () =
  let ctx_a, _ = fresh_ctx () in
  let ctx_b = second_fn ctx_a in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"s" (Bytes.make 5_000 's'));
  let denied = Mem.Prot.deny ctx_b.Asstd.thread.Wfd.user_pkru Wfd.buffer_key in
  let ctx_b =
    { ctx_b with Asstd.thread = { ctx_b.Asstd.thread with Wfd.pkru = denied; user_pkru = denied } }
  in
  match Asbuffer.from_slot_raw ctx_b ~slot:"s" with
  | _ -> Alcotest.fail "a receiver without the buffer key must not get the bytes"
  | exception
      Mem.Address_space.Fault { kind = Mem.Address_space.Pkey_denied (Mem.Prot.Read, key); _ }
    ->
      Alcotest.(check int) "buffer key" (Mem.Prot.key_to_int Wfd.buffer_key)
        (Mem.Prot.key_to_int key)

(* Payload lengths: empty, one byte, the first page boundary, every
   page multiple up to 1 MiB and one byte either side, and random. *)
let payload_length =
  let page = Mem.Page.size in
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; 4095; 4096; 4097 ];
        map2 (fun k d -> (k * page) + d) (int_range 1 256) (int_range (-1) 1);
        int_range 0 (Units.mib 1);
      ])

(* What a receive leaves observable: the value it returns, the buffer
   pages as read just before it, and the WFD and thread state after. *)
let observe ~receive ~typed ~ifi ~len ~seed =
  let ctx_a, wfd = fresh_ctx ~features:{ Wfd.default_features with Wfd.ifi } () in
  let ctx_b = second_fn ctx_a in
  let payload = Sim.Rng.bytes (Sim.Rng.create seed) len in
  let value = Fndata.Record [ ("n", Fndata.Int (Int64.of_int len)); ("p", Fndata.Raw payload) ] in
  ignore (Asbuffer.with_slot_raw ctx_a ~slot:"live" (Bytes.make 10 'l'));
  let sent =
    if typed then begin
      ignore (Asbuffer.with_slot ctx_a ~slot:"s" value);
      Fndata.encode value
    end
    else begin
      ignore (Asbuffer.with_slot_raw ctx_a ~slot:"s" payload);
      payload
    end
  in
  let b = Option.get (Libos_mm.peek_slot wfd "s") in
  let pages =
    Mem.Address_space.load_bytes wfd.Wfd.aspace ~pkru:ctx_b.Asstd.thread.Wfd.pkru
      b.Libos_mm.addr (Libos_mm.size b)
  in
  let got = receive ctx_b ~typed ~expect:value in
  ( Bytes.equal pages sent,
    got = (if typed then value else Fndata.Raw payload),
    ( got,
      Mem.Address_space.access_count wfd.Wfd.aspace,
      Mem.Address_space.touched_fault_count wfd.Wfd.aspace,
      Clock.now ctx_b.Asstd.thread.Wfd.clock,
      Hostos.Process.rss wfd.Wfd.proc_table wfd.Wfd.pid,
      Libos_mm.live_buffer_bytes wfd,
      Libos_mm.live_slots wfd ) )

let asbuffer_copy_differential =
  QCheck.Test.make ~name:"asbuffer: receive agrees with the copying receive" ~count:80
    QCheck.(
      make
        ~print:(fun (len, typed, ifi, seed) ->
          Printf.sprintf "len=%d typed=%b ifi=%b seed=%d" len typed ifi seed)
        Gen.(quad payload_length bool bool (int_bound 1_000)))
    (fun (len, typed, ifi, seed) ->
      let receive f_raw f_typed ctx ~typed ~expect =
        if typed then f_typed ctx ~slot:"s" ~expect else Fndata.Raw (f_raw ctx ~slot:"s")
      in
      let pages_ok, value_ok, fast =
        observe ~typed ~ifi ~len ~seed
          ~receive:(receive Asbuffer.from_slot_raw Asbuffer.from_slot)
      in
      let _, _, copying =
        observe ~typed ~ifi ~len ~seed
          ~receive:(receive Oracle.Asbuffer_copy.from_slot_raw Oracle.Asbuffer_copy.from_slot)
      in
      pages_ok && value_ok && fast = copying)

(* [consume_slot_raw] has its own acquire: its drain must leave what
   the raw receive leaves and count the bytes that receive returns. *)
let asbuffer_drain_agrees =
  QCheck.Test.make ~name:"asbuffer: drain agrees with the raw receive" ~count:40
    QCheck.(
      make
        ~print:(fun (len, ifi, seed) -> Printf.sprintf "len=%d ifi=%b seed=%d" len ifi seed)
        Gen.(triple payload_length bool (int_bound 1_000)))
    (fun (len, ifi, seed) ->
      let count f ctx ~typed:_ ~expect:_ = Fndata.Int (Int64.of_int (f ctx)) in
      let _, _, drained =
        observe ~typed:false ~ifi ~len ~seed
          ~receive:(count (fun ctx -> Asbuffer.consume_slot_raw ctx ~slot:"s"))
      in
      let _, _, received =
        observe ~typed:false ~ifi ~len ~seed
          ~receive:(count (fun ctx -> Bytes.length (Asbuffer.from_slot_raw ctx ~slot:"s")))
      in
      drained = received)

let suite =
  [
    Alcotest.test_case "sys loads on demand" `Quick test_sys_loads_on_demand;
    Alcotest.test_case "sys crosses trampoline" `Quick test_sys_crosses_trampoline;
    Alcotest.test_case "file api" `Quick test_file_api;
    Alcotest.test_case "now/compute" `Quick test_now_and_compute;
    Alcotest.test_case "python compute factor" `Quick test_compute_factor_python;
    Alcotest.test_case "phase accounting" `Quick test_phase_accounting;
    Alcotest.test_case "Fig.8 demo" `Quick test_asbuffer_fig8_demo;
    Alcotest.test_case "fingerprint protects" `Quick test_asbuffer_fingerprint_protects;
    Alcotest.test_case "raw roundtrip" `Quick test_asbuffer_raw_roundtrip;
    Alcotest.test_case "fan-out / fan-in" `Quick test_asbuffer_fan_out_fan_in;
    Alcotest.test_case "16MB timing (Fig.11)" `Quick test_asbuffer_timing_16mb;
    Alcotest.test_case "IFI overhead" `Quick test_asbuffer_ifi_overhead;
    Alcotest.test_case "file fallback" `Quick test_asbuffer_file_fallback;
    Alcotest.test_case "file fallback slower" `Quick test_asbuffer_file_fallback_slower;
    Alcotest.test_case "memory recovered" `Quick test_asbuffer_memory_recovered;
    QCheck_alcotest.to_alcotest asbuffer_roundtrip_property;
    Alcotest.test_case "raw receive hands over the sent bytes" `Quick
      test_asbuffer_raw_hands_over;
    Alcotest.test_case "1 MiB receive allocates no copy" `Quick test_asbuffer_receive_allocation;
    Alcotest.test_case "receiver denied the buffer key gets no bytes" `Quick
      test_asbuffer_pkey_denied_receiver;
    QCheck_alcotest.to_alcotest asbuffer_copy_differential;
    QCheck_alcotest.to_alcotest asbuffer_drain_agrees;
  ]
