(* Tests for the WFD, trampoline, on-demand loading and the as-libos
   modules — the heart of the reproduction. *)

open Sim
open Mem
open Alloystack_core

let check_time = Alcotest.testable Units.pp Units.equal

let fresh_wfd ?features ?vfs () =
  let proc_table = Hostos.Process.create_table () in
  let clock = Clock.create () in
  let wfd = Wfd.create ?features ?vfs ~proc_table ~clock ~workflow_name:"test" () in
  (wfd, clock)

let spawn wfd = Wfd.spawn_function_thread wfd ~clock:(Clock.create ())

(* --- WFD lifecycle and partitioning --- *)

let test_wfd_create_maps_system () =
  let wfd, clock = fresh_wfd () in
  Alcotest.(check bool) "visor code mapped" true
    (Address_space.is_mapped wfd.Wfd.aspace Layout.visor_code.Layout.base);
  Alcotest.(check bool) "libos code mapped" true
    (Address_space.is_mapped wfd.Wfd.aspace Layout.libos_code.Layout.base);
  Alcotest.(check bool) "trampoline mapped" true
    (Address_space.is_mapped wfd.Wfd.aspace Layout.trampoline.Layout.base);
  Alcotest.(check bool) "creation charged" true
    (Units.( >= ) (Clock.now clock) Cost.wfd_create);
  Alcotest.(check int) "no modules yet" 0 (Hashtbl.length wfd.Wfd.loaded_modules)

let test_wfd_spawn_threads () =
  let wfd, _ = fresh_wfd () in
  let t0 = spawn wfd in
  let t1 = spawn wfd in
  Alcotest.(check int) "slots increment" 0 t0.Wfd.fn_slot;
  Alcotest.(check int) "slots increment 2" 1 t1.Wfd.fn_slot;
  (* Each slot's regions are mapped with that slot's key. *)
  let heap0 = (Layout.function_heap 0).Layout.base in
  Alcotest.(check bool) "heap mapped" true (Address_space.is_mapped wfd.Wfd.aspace heap0);
  Alcotest.(check int) "shared user key"
    (Prot.key_to_int Wfd.shared_user_key)
    (Prot.key_to_int (Address_space.key_of wfd.Wfd.aspace heap0))

let test_wfd_user_cannot_touch_system () =
  let wfd, _ = fresh_wfd () in
  let t = spawn wfd in
  (* User rights forbid the system partition. *)
  match
    Address_space.load_byte wfd.Wfd.aspace ~pkru:t.Wfd.pkru Layout.libos_code.Layout.base
  with
  | _ -> Alcotest.fail "user must not read libos code"
  | exception Address_space.Fault { kind = Address_space.Pkey_denied _; _ } -> ()

let test_wfd_user_can_touch_own_heap () =
  let wfd, _ = fresh_wfd () in
  let t = spawn wfd in
  let heap = (Layout.function_heap 0).Layout.base in
  Address_space.store_byte wfd.Wfd.aspace ~pkru:t.Wfd.pkru heap 'x';
  Alcotest.(check char) "own heap accessible" 'x'
    (Address_space.load_byte wfd.Wfd.aspace ~pkru:t.Wfd.pkru heap)

let test_wfd_shared_mode_cross_function_access () =
  (* Without IFI, functions share the user key: function 1 can read
     function 0's heap (same-tenant trust, §3.1). *)
  let wfd, _ = fresh_wfd () in
  let t0 = spawn wfd in
  let t1 = spawn wfd in
  let heap0 = (Layout.function_heap 0).Layout.base in
  Address_space.store_byte wfd.Wfd.aspace ~pkru:t0.Wfd.pkru heap0 'a';
  Alcotest.(check char) "shared key allows" 'a'
    (Address_space.load_byte wfd.Wfd.aspace ~pkru:t1.Wfd.pkru heap0)

let test_wfd_ifi_blocks_cross_function () =
  let features = { Wfd.default_features with Wfd.ifi = true } in
  let wfd, _ = fresh_wfd ~features () in
  let t0 = spawn wfd in
  let t1 = spawn wfd in
  let heap0 = (Layout.function_heap 0).Layout.base in
  Address_space.store_byte wfd.Wfd.aspace ~pkru:t0.Wfd.pkru heap0 'a';
  match Address_space.load_byte wfd.Wfd.aspace ~pkru:t1.Wfd.pkru heap0 with
  | _ -> Alcotest.fail "IFI must block cross-function reads"
  | exception Address_space.Fault { kind = Address_space.Pkey_denied _; _ } -> ()

let test_wfd_destroy () =
  let wfd, _ = fresh_wfd () in
  Wfd.destroy wfd;
  Wfd.destroy wfd (* idempotent *);
  match spawn wfd with
  | _ -> Alcotest.fail "spawn after destroy must fail"
  | exception Invalid_argument _ -> ()

(* --- trampoline --- *)

let test_trampoline_switches_rights () =
  let wfd, _ = fresh_wfd () in
  let t = spawn wfd in
  Alcotest.(check bool) "starts in user" false (Trampoline.in_system t);
  let observed =
    Trampoline.enter_system wfd t (fun () ->
        (* Inside: the system partition is readable. *)
        ignore
          (Address_space.load_byte wfd.Wfd.aspace ~pkru:t.Wfd.pkru
             Layout.libos_code.Layout.base);
        Trampoline.in_system t)
  in
  Alcotest.(check bool) "was in system" true observed;
  Alcotest.(check bool) "restored to user" false (Trampoline.in_system t);
  Alcotest.(check int) "crossing counted" 1 wfd.Wfd.trampoline_crossings

let test_trampoline_not_reentrant () =
  let wfd, _ = fresh_wfd () in
  let t = spawn wfd in
  match
    Trampoline.enter_system wfd t (fun () ->
        Trampoline.enter_system wfd t (fun () -> ()))
  with
  | _ -> Alcotest.fail "nested enter must fail"
  | exception Trampoline.Not_in_user_context -> ()

let test_trampoline_restores_on_exception () =
  let wfd, _ = fresh_wfd () in
  let t = spawn wfd in
  (try Trampoline.enter_system wfd t (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check bool) "rights restored after raise" false (Trampoline.in_system t)

let test_trampoline_charges_time () =
  let wfd, _ = fresh_wfd () in
  let t = spawn wfd in
  let before = Clock.now t.Wfd.clock in
  Trampoline.enter_system wfd t (fun () -> ());
  Alcotest.check check_time "two switches"
    (Units.scale Cost.trampoline_switch 2.0)
    (Units.sub (Clock.now t.Wfd.clock) before)

(* --- on-demand loading (Fig. 7) --- *)

let test_entry_miss_then_fast_path () =
  let wfd, _ = fresh_wfd () in
  let clock = Clock.create () in
  (match Libos.ensure_entry wfd ~clock "alloc_buffer" with
  | `Slow -> ()
  | `Fast -> Alcotest.fail "first call must be the slow path");
  Alcotest.(check bool) "mm loaded" true (Wfd.is_loaded wfd "mm");
  let after_load = Clock.now clock in
  Alcotest.(check bool) "load took real time" true
    (Units.( > ) after_load (Cost.module_load "mm"));
  (match Libos.ensure_entry wfd ~clock "alloc_buffer" with
  | `Fast -> ()
  | `Slow -> Alcotest.fail "second call must be fast");
  Alcotest.check check_time "fast path costs nothing" after_load (Clock.now clock);
  Alcotest.(check int) "one miss" 1 wfd.Wfd.entry_misses;
  Alcotest.(check int) "one hit" 1 wfd.Wfd.entry_hits

let test_module_dependencies_load_first () =
  let wfd, _ = fresh_wfd () in
  let clock = Clock.create () in
  (* fdtab depends on fatfs and stdio. *)
  Libos.load_module wfd ~clock "fdtab";
  List.iter
    (fun m -> Alcotest.(check bool) (m ^ " loaded") true (Wfd.is_loaded wfd m))
    [ "fdtab"; "fatfs"; "stdio" ];
  Alcotest.(check bool) "unrelated not loaded" false (Wfd.is_loaded wfd "socket")

let test_load_idempotent () =
  let wfd, _ = fresh_wfd () in
  let clock = Clock.create () in
  Libos.load_module wfd ~clock "time";
  let t1 = Clock.now clock in
  Libos.load_module wfd ~clock "time";
  Alcotest.check check_time "second load free" t1 (Clock.now clock)

let test_load_all () =
  let wfd, _ = fresh_wfd () in
  let clock = Clock.create () in
  Libos.load_all wfd ~clock;
  Alcotest.(check int) "all seven" 7 (Hashtbl.length wfd.Wfd.loaded_modules);
  List.iter
    (fun m -> Alcotest.(check bool) m true (Wfd.is_loaded wfd m))
    Libos.module_names

let test_entry_table_is_per_wfd () =
  let wfd1, _ = fresh_wfd () in
  let wfd2, _ = fresh_wfd () in
  Libos.load_module wfd1 ~clock:(Clock.create ()) "mm";
  Alcotest.(check bool) "wfd2 unaffected" false (Wfd.is_loaded wfd2 "mm")

let test_providing_unknown_entry () =
  match Libos.providing "not_an_entry" with
  | _ -> Alcotest.fail "must raise"
  | exception Invalid_argument _ -> ()

(* --- mm module: buffers --- *)

let mm_wfd () =
  let wfd, _ = fresh_wfd () in
  Libos.load_module wfd ~clock:(Clock.create ()) "mm";
  wfd

let test_mm_alloc_acquire () =
  let wfd = mm_wfd () in
  let clock = Clock.create () in
  let buf =
    match Libos_mm.alloc_buffer wfd ~clock ~slot:"s" ~size:10_000 ~fingerprint:42L with
    | Ok b -> b
    | Error e -> Alcotest.fail (Errno.to_string e)
  in
  Alcotest.(check bool) "pages mapped with buffer key" true
    (Prot.key_to_int (Address_space.key_of wfd.Wfd.aspace buf.Libos_mm.addr)
    = Prot.key_to_int Wfd.buffer_key);
  (match Libos_mm.acquire_buffer wfd ~clock ~slot:"s" ~fingerprint:42L with
  | Ok b -> Alcotest.(check int) "same addr" buf.Libos_mm.addr b.Libos_mm.addr
  | Error e -> Alcotest.fail (Errno.to_string e));
  (* Single ownership: the second acquire fails. *)
  match Libos_mm.acquire_buffer wfd ~clock ~slot:"s" ~fingerprint:42L with
  | Error Errno.Enoent -> ()
  | Ok _ -> Alcotest.fail "slot must be consumed"
  | Error e -> Alcotest.fail (Errno.to_string e)

let test_mm_fingerprint_mismatch () =
  let wfd = mm_wfd () in
  let clock = Clock.create () in
  ignore (Libos_mm.alloc_buffer wfd ~clock ~slot:"s" ~size:100 ~fingerprint:1L);
  (match Libos_mm.acquire_buffer wfd ~clock ~slot:"s" ~fingerprint:2L with
  | Error Errno.Einval -> ()
  | Ok _ | Error _ -> Alcotest.fail "fingerprint mismatch must be EINVAL");
  (* The failed acquire must not consume the slot. *)
  match Libos_mm.acquire_buffer wfd ~clock ~slot:"s" ~fingerprint:1L with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Errno.to_string e)

let test_mm_duplicate_slot () =
  let wfd = mm_wfd () in
  let clock = Clock.create () in
  ignore (Libos_mm.alloc_buffer wfd ~clock ~slot:"s" ~size:100 ~fingerprint:1L);
  match Libos_mm.alloc_buffer wfd ~clock ~slot:"s" ~size:100 ~fingerprint:1L with
  | Error Errno.Eexist -> ()
  | Ok _ | Error _ -> Alcotest.fail "duplicate slot must be EEXIST"

let test_mm_free_unmaps () =
  let wfd = mm_wfd () in
  let clock = Clock.create () in
  let buf =
    Result.get_ok (Libos_mm.alloc_buffer wfd ~clock ~slot:"s" ~size:8192 ~fingerprint:1L)
  in
  let b = Result.get_ok (Libos_mm.acquire_buffer wfd ~clock ~slot:"s" ~fingerprint:1L) in
  Libos_mm.free_buffer wfd b;
  Alcotest.(check bool) "unmapped" false
    (Address_space.is_mapped wfd.Wfd.aspace buf.Libos_mm.addr);
  Alcotest.(check int) "no live bytes" 0 (Libos_mm.live_buffer_bytes wfd)

let test_mm_slot_listing () =
  let wfd = mm_wfd () in
  let clock = Clock.create () in
  ignore (Libos_mm.alloc_buffer wfd ~clock ~slot:"a" ~size:10 ~fingerprint:1L);
  ignore (Libos_mm.alloc_buffer wfd ~clock ~slot:"b" ~size:10 ~fingerprint:1L);
  Alcotest.(check (list string)) "live slots" [ "a"; "b" ] (Libos_mm.live_slots wfd);
  Alcotest.(check bool) "peek" true (Libos_mm.peek_slot wfd "a" <> None);
  Alcotest.(check bool) "peek missing" true (Libos_mm.peek_slot wfd "zz" = None)

let test_mm_mmap () =
  let wfd = mm_wfd () in
  let t = spawn wfd in
  let clock = Clock.create () in
  let addr =
    Result.get_ok (Libos_mm.mmap wfd ~clock ~thread:t ~len:100_000)
  in
  (* The mapping is private to the function: its own key tags it. *)
  Address_space.store_byte wfd.Wfd.aspace ~pkru:t.Wfd.pkru addr 'm';
  Alcotest.(check char) "mmap usable" 'm'
    (Address_space.load_byte wfd.Wfd.aspace ~pkru:t.Wfd.pkru addr);
  let addr2 = Result.get_ok (Libos_mm.mmap wfd ~clock ~thread:t ~len:4096) in
  Alcotest.(check bool) "mmaps do not overlap" true (addr2 >= addr + 100_000)

(* --- fdtab / fatfs / stdio / time modules --- *)

let io_wfd () =
  let wfd, _ = fresh_wfd () in
  Libos.load_module wfd ~clock:(Clock.create ()) "fdtab";
  wfd

let test_fdtab_file_io () =
  let wfd = io_wfd () in
  let clock = Clock.create () in
  let fd =
    Result.get_ok (Libos_fdtab.openf wfd ~clock ~path:"/data.txt" ~create:true)
  in
  ignore (Result.get_ok (Libos_fdtab.write wfd ~clock ~fd (Bytes.of_string "hello ")));
  ignore (Result.get_ok (Libos_fdtab.write wfd ~clock ~fd (Bytes.of_string "world")));
  Result.get_ok (Libos_fdtab.close wfd ~clock ~fd);
  let fd2 = Result.get_ok (Libos_fdtab.openf wfd ~clock ~path:"/data.txt" ~create:false) in
  let part1 = Result.get_ok (Libos_fdtab.read wfd ~clock ~fd:fd2 ~len:6) in
  let part2 = Result.get_ok (Libos_fdtab.read wfd ~clock ~fd:fd2 ~len:100) in
  Alcotest.(check string) "sequential reads" "hello world"
    (Bytes.to_string part1 ^ Bytes.to_string part2)

let test_fdtab_errors () =
  let wfd = io_wfd () in
  let clock = Clock.create () in
  (match Libos_fdtab.openf wfd ~clock ~path:"/missing" ~create:false with
  | Error Errno.Enoent -> ()
  | Ok _ | Error _ -> Alcotest.fail "missing file must be ENOENT");
  (match Libos_fdtab.read wfd ~clock ~fd:99 ~len:1 with
  | Error Errno.Ebadf -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad fd must be EBADF");
  match Libos_fdtab.close wfd ~clock ~fd:99 with
  | Error Errno.Ebadf -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad close must be EBADF"

let test_fdtab_stdout () =
  let wfd = io_wfd () in
  let clock = Clock.create () in
  let fd = Result.get_ok (Libos_fdtab.openf wfd ~clock ~path:"/dev/stdout" ~create:false) in
  ignore (Result.get_ok (Libos_fdtab.write wfd ~clock ~fd (Bytes.of_string "console!")));
  Alcotest.(check string) "console output" "console!" (Libos_stdio.output wfd);
  match Libos_fdtab.read wfd ~clock ~fd ~len:1 with
  | Error Errno.Einval -> ()
  | Ok _ | Error _ -> Alcotest.fail "reading stdout must be EINVAL"

let test_fatfs_module_charges_clock () =
  let wfd, _ = fresh_wfd () in
  Libos.load_module wfd ~clock:(Clock.create ()) "fatfs";
  let clock = Clock.create () in
  ignore (Libos_fatfs.fatfs_write wfd ~clock "/f" (Bytes.make 1_000_000 'x'));
  let after_write = Clock.now clock in
  Alcotest.(check bool) "write charged" true (Units.( > ) after_write Units.zero);
  ignore (Result.get_ok (Libos_fatfs.fatfs_read wfd ~clock "/f"));
  Alcotest.(check bool) "read slower than write (fatfs)" true
    (Units.( > ) (Units.sub (Clock.now clock) after_write) after_write)

let test_time_module () =
  let wfd, _ = fresh_wfd () in
  Libos.load_module wfd ~clock:(Clock.create ()) "time";
  let clock = Clock.create ~at:(Units.ms 5) () in
  let ts = Libos_time.gettimeofday wfd ~clock in
  Alcotest.(check bool) "epoch offset" true (ts > Libos_time.epoch_ns);
  let ts2 = Libos_time.gettimeofday wfd ~clock in
  Alcotest.(check bool) "monotonic" true (ts2 > ts)

(* --- socket module --- *)

let test_socket_module () =
  Libos_socket.reset_host ();
  let wfd_a, _ = fresh_wfd () in
  let wfd_b, _ = fresh_wfd () in
  let clock = Clock.create () in
  Libos.load_module wfd_a ~clock "socket";
  Libos.load_module wfd_b ~clock "socket";
  (* Each WFD has its own IP. *)
  let ip_a = Option.get (Libos_socket.wfd_ip wfd_a) in
  let ip_b = Option.get (Libos_socket.wfd_ip wfd_b) in
  Alcotest.(check bool) "independent IPs" true (ip_a <> ip_b);
  (* b listens; a connects and sends. *)
  let server_clock = Clock.create () in
  let listener = Result.get_ok (Libos_socket.smol_bind wfd_b ~clock:server_clock ~port:80) in
  let client_clock = Clock.create () in
  let conn =
    Result.get_ok (Libos_socket.smol_connect wfd_a ~clock:client_clock ~ip:ip_b ~port:80)
  in
  let accepted = Result.get_ok (Libos_socket.smol_accept listener ~clock:server_clock) in
  ignore accepted;
  ignore (Libos_socket.smol_send conn ~clock:client_clock ~from_client:true (Bytes.of_string "GET /"));
  let got = Libos_socket.smol_recv conn ~clock:server_clock ~at_client:false 5 in
  Alcotest.(check bytes) "data over smoltcp" (Bytes.of_string "GET /") got;
  (* Port collision. *)
  match Libos_socket.smol_bind wfd_b ~clock:server_clock ~port:80 with
  | Error Errno.Eexist -> ()
  | Ok _ | Error _ -> Alcotest.fail "port reuse must be EEXIST"

let test_socket_connect_nowhere () =
  Libos_socket.reset_host ();
  let wfd, _ = fresh_wfd () in
  Libos.load_module wfd ~clock:(Clock.create ()) "socket";
  match
    Libos_socket.smol_connect wfd ~clock:(Clock.create ()) ~ip:"10.9.9.9" ~port:1
  with
  | Error Errno.Enotconn -> ()
  | Ok _ | Error _ -> Alcotest.fail "connect to nowhere must be ENOTCONN"

let test_http_server_between_wfds () =
  (* The http-server benchmark end to end: WFD B serves a fixed
     response over its smoltcp stack; WFD A connects through the
     simulated host network, sends a request and reads the reply —
     all bytes really crossing the TCP state machine. *)
  Libos_socket.reset_host ();
  let server_wfd, _ = fresh_wfd () in
  let client_wfd, _ = fresh_wfd () in
  let clock = Clock.create () in
  Libos.load_module server_wfd ~clock "socket";
  Libos.load_module client_wfd ~clock "socket";
  let server_clock = Clock.create () in
  let listener =
    Result.get_ok (Libos_socket.smol_bind server_wfd ~clock:server_clock ~port:8080)
  in
  let ip = Option.get (Libos_socket.wfd_ip server_wfd) in
  let client_clock = Clock.create () in
  let conn =
    Result.get_ok
      (Libos_socket.smol_connect client_wfd ~clock:client_clock ~ip ~port:8080)
  in
  ignore (Result.get_ok (Libos_socket.smol_accept listener ~clock:server_clock));
  (* Client sends an HTTP request. *)
  let request =
    Netsim.Http.encode_request (Netsim.Http.request ~meth:"GET" ~path:"/" ())
  in
  ignore
    (Libos_socket.smol_send conn ~clock:client_clock ~from_client:true
       (Bytes.of_string request));
  (* Server parses it and answers with the canned response. *)
  let raw =
    Libos_socket.smol_recv conn ~clock:server_clock ~at_client:false
      (String.length request)
  in
  (match Netsim.Http.decode_request (Bytes.to_string raw) with
  | Ok req -> Alcotest.(check string) "server parsed path" "/" req.Netsim.Http.path
  | Error e -> Alcotest.fail e);
  let response = Netsim.Http.ok "hi" in
  let encoded = Netsim.Http.encode_response response in
  ignore
    (Libos_socket.smol_send conn ~clock:server_clock ~from_client:false
       (Bytes.of_string encoded));
  let reply =
    Libos_socket.smol_recv conn ~clock:client_clock ~at_client:true
      (String.length encoded)
  in
  (match Netsim.Http.decode_response (Bytes.to_string reply) with
  | Ok resp ->
      Alcotest.(check int) "status" 200 resp.Netsim.Http.status;
      Alcotest.(check string) "body" "hi" resp.Netsim.Http.resp_body
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "round trip took virtual time" true
    (Units.( > ) (Clock.now client_clock) Units.zero)

let test_fig5_http_client_over_fd () =
  (* Fig. 5 of the paper: an HTTP client written against as-std's
     file-descriptor API, the socket installed in fdtab. *)
  Libos_socket.reset_host ();
  let server_wfd, _ = fresh_wfd () in
  let client_wfd, _ = fresh_wfd () in
  Libos.load_module server_wfd ~clock:(Clock.create ()) "socket";
  let server_clock = Clock.create () in
  let listener =
    Result.get_ok (Libos_socket.smol_bind server_wfd ~clock:server_clock ~port:80)
  in
  let ip = Option.get (Libos_socket.wfd_ip server_wfd) in
  (* Client side runs through as-std like user code would. *)
  let thread = Wfd.spawn_function_thread client_wfd ~clock:(Clock.create ()) in
  let ctx = Asstd.make_ctx client_wfd thread Workflow.Rust in
  let fd = Asstd.tcp_connect_fd ctx ~ip ~port:80 in
  ignore (Result.get_ok (Libos_socket.smol_accept listener ~clock:server_clock));
  let request = "GET /hello HTTP/1.1\r\n\r\n" in
  let written = Asstd.write_fd ctx ~fd (Bytes.of_string request) in
  Alcotest.(check int) "request written" (String.length request) written;
  (* Server echoes a response over the same connection. *)
  (match Libos_fdtab.lookup client_wfd fd with
  | Some (Libos_fdtab.Socket { conn; _ }) ->
      let got = Netsim.Tcp.recv conn ~at_client:false (String.length request) in
      Alcotest.(check bytes) "server got the request" (Bytes.of_string request) got;
      Netsim.Tcp.send conn ~from_client:false (Bytes.of_string "HTTP/1.1 200 OK\r\n\r\nok")
  | _ -> Alcotest.fail "fd is not a socket");
  let reply = Asstd.read_fd ctx ~fd ~len:4096 in
  Alcotest.(check bool) "client read the response" true
    (Bytes.length reply > 0
    && String.length (Bytes.to_string reply) >= 8
    && String.sub (Bytes.to_string reply) 0 8 = "HTTP/1.1");
  Asstd.close_fd ctx ~fd;
  match Libos_fdtab.lookup client_wfd fd with
  | None -> ()
  | Some _ -> Alcotest.fail "fd must be closed"

(* --- mmap_file_backend --- *)

let test_mmap_file_backend () =
  let wfd, _ = fresh_wfd () in
  let clock = Clock.create () in
  Libos.load_module wfd ~clock "mmap_file_backend";
  let t = spawn wfd in
  (* Stage a file, mmap a region, bind them, then read through it. *)
  ignore
    (Result.get_ok
       (Libos_fatfs.fatfs_write wfd ~clock "/backing" (Bytes.make 8192 'F')));
  let addr = Result.get_ok (Libos_mm.mmap wfd ~clock ~thread:t ~len:8192) in
  Result.get_ok
    (Libos_mmap_backend.register_file_backend wfd ~clock ~region_addr:addr
       ~region_len:8192 ~path:"/backing");
  let c = Address_space.load_byte wfd.Wfd.aspace ~pkru:t.Wfd.pkru (addr + 5000) in
  Alcotest.(check char) "fault populated from file" 'F' c;
  Alcotest.(check int) "fault served" 1 (Libos_mmap_backend.faults_served wfd);
  (* Unregistered region: EINVAL. *)
  match
    Libos_mmap_backend.register_file_backend wfd ~clock ~region_addr:0xDEAD000
      ~region_len:4096 ~path:"/backing"
  with
  | Error Errno.Einval -> ()
  | Ok _ | Error _ -> Alcotest.fail "unmapped region must be EINVAL"

(* --- Template pools (Wfd.bind / Wfd.release) --- *)

(* A template with modules preloaded, in its own process table. *)
let pooled_template () =
  let proc_table = Hostos.Process.create_table () in
  let clock = Clock.create () in
  let tpl = Wfd.create ~proc_table ~clock ~workflow_name:"tpl" () in
  List.iter (Libos.load_module tpl ~clock) [ "mm"; "stdio" ];
  (tpl, proc_table)

let sorted_bindings h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let test_reused_shell_binds_like_new () =
  (* Pooling is host-only: a shell dirtied by one request, released
     and bound again must be indistinguishable from a new one. *)
  let live0 = Wfd.live_count () in
  let tpl, tpl_table = pooled_template () in
  let tpl_rss = Hostos.Process.rss tpl_table tpl.Wfd.pid in
  let p = Wfd.pool tpl in
  let bind_fresh_request p =
    let proc_table = Hostos.Process.create_table () in
    let clock = Clock.create () in
    let w =
      Wfd.with_id_namespace ~base:100 (fun () ->
          Wfd.bind p ~scratch_disk:true ~proc_table ~clock)
    in
    (w, proc_table, Clock.now clock)
  in
  let dirty, _, _ = bind_fresh_request p in
  let clock = Clock.create () in
  let th = Wfd.spawn_function_thread dirty ~clock in
  let heap0 = (Layout.function_heap 0).Layout.base in
  Address_space.store_byte dirty.Wfd.aspace ~pkru:th.Wfd.pkru heap0 'x';
  Libos.load_module dirty ~clock "fatfs";
  ignore (Libos_stdio.host_stdout dirty ~clock (Bytes.of_string "hello"));
  dirty.Wfd.vfs.Fsim.Vfs.write_file "/scratch" (Bytes.make 4096 's');
  Alcotest.(check bool) "clean release pools" true (Wfd.release p dirty);
  Alcotest.(check int) "pooled shell holds no process entry" 0 dirty.Wfd.pid;
  let reused, reused_table, reused_boot = bind_fresh_request p in
  Alcotest.(check bool) "bind reuses the released shell" true (reused == dirty);
  let fresh, fresh_table, fresh_boot = bind_fresh_request (Wfd.pool tpl) in
  Alcotest.(check bool) "an empty pool builds a new shell" false (fresh == dirty);
  Alcotest.(check int) "mapped bytes" (Wfd.mapped_bytes fresh) (Wfd.mapped_bytes reused);
  Alcotest.(check (list (pair string unit))) "loaded modules"
    (sorted_bindings fresh.Wfd.loaded_modules)
    (sorted_bindings reused.Wfd.loaded_modules);
  Alcotest.(check (list (pair string string))) "entry table"
    (sorted_bindings fresh.Wfd.entry_table)
    (sorted_bindings reused.Wfd.entry_table);
  Alcotest.(check int) "next function slot" fresh.Wfd.next_fn_slot reused.Wfd.next_fn_slot;
  Alcotest.(check string) "stdout empty" "" (Libos_stdio.output reused);
  Alcotest.(check (list string)) "disk listing"
    (fresh.Wfd.vfs.Fsim.Vfs.list_files ())
    (reused.Wfd.vfs.Fsim.Vfs.list_files ());
  Alcotest.check check_time "clock advance" fresh_boot reused_boot;
  Alcotest.(check int) "id from the namespace" fresh.Wfd.id reused.Wfd.id;
  Alcotest.(check int) "rss charged in the request's table"
    (Hostos.Process.rss fresh_table fresh.Wfd.pid)
    (Hostos.Process.rss reused_table reused.Wfd.pid);
  (* Pages a pooled shell recycled read as zero in its next request. *)
  let th = Wfd.spawn_function_thread reused ~clock:(Clock.create ()) in
  Alcotest.(check char) "slot 0 heap reads zero" '\000'
    (Address_space.load_byte reused.Wfd.aspace ~pkru:th.Wfd.pkru heap0);
  (* A request with its own plan gets a new shell armed with it, and
     that shell is destroyed, never pooled. *)
  ignore (Wfd.release p reused);
  let plan = Fault.create ~seed:1 () in
  let own =
    Wfd.bind ~fault:plan p ~scratch_disk:true
      ~proc_table:(Hostos.Process.create_table ()) ~clock:(Clock.create ())
  in
  Alcotest.(check bool) "own plan skips the pool" false (own == reused);
  Alcotest.(check bool) "armed with the request's plan" true
    (match own.Wfd.fault with Some f -> f == plan | None -> false);
  Alcotest.(check bool) "own-plan release destroys" false (Wfd.release p own);
  Alcotest.(check bool) "own-plan shell destroyed" true own.Wfd.destroyed;
  (* Many cycles, then a release into a retired pool: the template
     keeps its own process entry throughout. *)
  for _ = 1 to 20 do
    let next, _, _ = bind_fresh_request p in
    Alcotest.(check bool) "cycle reuses the shell" true (next == reused);
    ignore (Wfd.release p next)
  done;
  let last, _, _ = bind_fresh_request p in
  Wfd.retire p;
  Alcotest.(check bool) "retired pool destroys" false (Wfd.release p last);
  Alcotest.(check bool) "released shell destroyed" true last.Wfd.destroyed;
  Alcotest.(check int) "template keeps its process" 1
    (Hostos.Process.live_processes tpl_table);
  Alcotest.(check int) "template rss still answers" tpl_rss
    (Hostos.Process.rss tpl_table tpl.Wfd.pid);
  Wfd.destroy fresh;
  Wfd.drain p;
  Alcotest.(check int) "drain leaves no WFD" live0 (Wfd.live_count ())

(* Serve a stream and report the WFDs left live before [shutdown]
   (templates plus pooled shells), relative to the baseline. *)
let serve_pooled ?config ?(spec = Test_par.endpoints_spec) ~requests () =
  let live0 = Wfd.live_count () in
  let server = Visor.Server.create ?config () in
  List.iter
    (fun (endpoint, workflow, bindings) ->
      Visor.Server.register server ~endpoint ~workflow ~bindings ())
    spec;
  let r = Visor.Server.serve server requests in
  let held = Wfd.live_count () - live0 in
  Visor.Server.shutdown server;
  Alcotest.(check int) "shutdown returns to baseline" live0 (Wfd.live_count ());
  (r, held)

let test_recycle_vs_fresh_differential () =
  (* Reference: a server whose plan arms no site.  Every request then
     carries its own silent plan, binds a new WFD and destroys it —
     the clone-then-destroy path.  Responses, counters, trace and
     metrics exports must match the pooled server byte for byte. *)
  let observe ?config ~requests () =
    Trace.clear Trace.global;
    Span.clear Span.global;
    Metrics.reset ();
    Span.set_enabled Span.global true;
    let r, held = serve_pooled ?config ~requests () in
    let tr = Obs.trace_json_string () in
    let me = Obs.metrics_json_string () in
    Span.set_enabled Span.global false;
    Trace.clear Trace.global;
    Span.clear Span.global;
    Metrics.reset ();
    (Test_par.fingerprint r ^ "|" ^ Test_par.summary r, tr, me, held)
  in
  let silent = { Visor.default_config with Visor.fault = Some (Fault.create ~seed:1 ()) } in
  List.iter
    (fun domains ->
      Test_par.with_domains domains (fun () ->
          List.iter
            (fun seed ->
              let requests = Test_par.requests_for ~seed ~count:40 in
              let fresh_fp, fresh_tr, fresh_me, fresh_held =
                observe ~config:silent ~requests ()
              in
              let rec_fp, rec_tr, rec_me, rec_held = observe ~requests () in
              let tag what = Printf.sprintf "%s (seed %d, %d domains)" what seed domains in
              Alcotest.(check int) (tag "reference pools nothing") 3 fresh_held;
              Alcotest.(check bool)
                (tag (Printf.sprintf "plain server pools shells (%d live)" rec_held))
                true (rec_held > 3);
              Alcotest.(check string) (tag "responses identical") fresh_fp rec_fp;
              Alcotest.(check string) (tag "trace identical") fresh_tr rec_tr;
              Alcotest.(check string) (tag "metrics identical") fresh_me rec_me)
            [ 3; 13; 23 ]))
    [ 1; 4 ]

let test_recycle_no_leak_under_faults () =
  (* Crashing requests must not strand shells: a WFD that died
     mid-request is destroyed, not pooled, and shutdown drains the
     pool, so the live count returns to its pre-serve baseline. *)
  let requests = Test_par.requests_for ~seed:17 ~count:40 in
  let plan = Fault.create ~seed:9 () in
  Fault.inject plan ~site:Fault.site_fn_crash (Fault.Every 5);
  let config =
    { Visor.default_config with Visor.fault = Some plan; retry = Visor.Retry_workflow 2 }
  in
  let (_, s), _ = serve_pooled ~config ~requests () in
  Alcotest.(check int) "every request resolved" 40
    (s.Visor.Server.sm_completed + s.Visor.Server.sm_failed);
  Alcotest.(check bool) "faults actually fired" true
    (Fault.fired plan ~site:Fault.site_fn_crash > 0)

let test_recycle_identical_across_domains () =
  (* Pooled shells reuse reserved WFD ids, so the id stream — and
     with it every response and trace byte — must not depend on which
     domain popped which shell. *)
  let requests = Test_par.requests_for ~seed:29 ~count:50 in
  let observe domains =
    Test_par.with_domains domains (fun () ->
        Trace.clear Trace.global;
        Metrics.reset ();
        let r, _ = serve_pooled ~requests () in
        let tr = Obs.trace_json_string () in
        Trace.clear Trace.global;
        Metrics.reset ();
        (Test_par.fingerprint r ^ "|" ^ Test_par.summary r, tr))
  in
  let seq_fp, seq_tr = observe 1 in
  let par_fp, par_tr = observe 4 in
  Alcotest.(check string) "responses identical at 1 vs 4 domains" seq_fp par_fp;
  Alcotest.(check string) "trace identical at 1 vs 4 domains" seq_tr par_tr

let test_pool_bound () =
  (* A shell is held by one running attempt at a time and a new one is
     built only when the pool is empty, so one template never pools
     more shells than there are domains — with or without retries of
     requests that carry no fault plan. *)
  let flaky (ctx : Asstd.ctx) ~instance:_ ~total:_ =
    Asstd.compute ctx (Units.ms 2);
    (* Ids are drawn per attempt from the request's reserved range, a
       stride of 1 or 3 apart: one attempt in five fails. *)
    if ctx.Asstd.wfd.Wfd.id mod 5 = 0 then failwith "flaky attempt"
  in
  let wf = Workflow.create_exn ~name:"flaky" ~nodes:[ Test_par.node "f" ] ~edges:[] in
  let spec = [ ("flaky", wf, [ ("f", Visor.bind flaky) ]) ] in
  let requests =
    List.map
      (fun (r : Visor.Server.request) -> { r with Visor.Server.endpoint = "flaky" })
      (Test_par.requests_for ~seed:41 ~count:300)
  in
  List.iter
    (fun (domains, retry) ->
      Test_par.with_domains domains (fun () ->
          let config = { Visor.default_config with Visor.retry } in
          let (responses, _), held = serve_pooled ~config ~spec ~requests () in
          let tag what = Printf.sprintf "%s (%d domains)" what domains in
          Alcotest.(check bool) (tag "some attempts failed") true
            (List.exists
               (fun (r : Visor.Server.response) ->
                 (not r.Visor.Server.r_ok) || r.Visor.Server.r_attempts > 1)
               responses);
          Alcotest.(check bool)
            (tag (Printf.sprintf "1 template + <= %d shells, got %d" domains held))
            true
            (held >= 1 && held <= 1 + Par.domains ())))
    [
      (1, Visor.No_retry);
      (4, Visor.No_retry);
      (1, Visor.Retry_workflow 3);
      (4, Visor.Retry_workflow 3);
    ]

let suite =
  [
    Alcotest.test_case "wfd create maps system" `Quick test_wfd_create_maps_system;
    Alcotest.test_case "wfd spawn threads" `Quick test_wfd_spawn_threads;
    Alcotest.test_case "user cannot touch system" `Quick test_wfd_user_cannot_touch_system;
    Alcotest.test_case "user can touch own heap" `Quick test_wfd_user_can_touch_own_heap;
    Alcotest.test_case "shared mode cross-function" `Quick test_wfd_shared_mode_cross_function_access;
    Alcotest.test_case "IFI blocks cross-function" `Quick test_wfd_ifi_blocks_cross_function;
    Alcotest.test_case "wfd destroy" `Quick test_wfd_destroy;
    Alcotest.test_case "trampoline switches rights" `Quick test_trampoline_switches_rights;
    Alcotest.test_case "trampoline not reentrant" `Quick test_trampoline_not_reentrant;
    Alcotest.test_case "trampoline restores on exception" `Quick test_trampoline_restores_on_exception;
    Alcotest.test_case "trampoline charges time" `Quick test_trampoline_charges_time;
    Alcotest.test_case "entry miss then fast path" `Quick test_entry_miss_then_fast_path;
    Alcotest.test_case "module dependencies" `Quick test_module_dependencies_load_first;
    Alcotest.test_case "load idempotent" `Quick test_load_idempotent;
    Alcotest.test_case "load all" `Quick test_load_all;
    Alcotest.test_case "entry table per WFD" `Quick test_entry_table_is_per_wfd;
    Alcotest.test_case "unknown entry" `Quick test_providing_unknown_entry;
    Alcotest.test_case "mm alloc/acquire" `Quick test_mm_alloc_acquire;
    Alcotest.test_case "mm fingerprint mismatch" `Quick test_mm_fingerprint_mismatch;
    Alcotest.test_case "mm duplicate slot" `Quick test_mm_duplicate_slot;
    Alcotest.test_case "mm free unmaps" `Quick test_mm_free_unmaps;
    Alcotest.test_case "mm slot listing" `Quick test_mm_slot_listing;
    Alcotest.test_case "mm mmap" `Quick test_mm_mmap;
    Alcotest.test_case "fdtab file io" `Quick test_fdtab_file_io;
    Alcotest.test_case "fdtab errors" `Quick test_fdtab_errors;
    Alcotest.test_case "fdtab stdout" `Quick test_fdtab_stdout;
    Alcotest.test_case "fatfs charges clock" `Quick test_fatfs_module_charges_clock;
    Alcotest.test_case "time module" `Quick test_time_module;
    Alcotest.test_case "socket module" `Quick test_socket_module;
    Alcotest.test_case "socket connect nowhere" `Quick test_socket_connect_nowhere;
    Alcotest.test_case "http server between WFDs" `Quick test_http_server_between_wfds;
    Alcotest.test_case "Fig.5 http client over fd" `Quick test_fig5_http_client_over_fd;
    Alcotest.test_case "mmap file backend" `Quick test_mmap_file_backend;
    Alcotest.test_case "reused shell binds like a new one" `Quick
      test_reused_shell_binds_like_new;
    Alcotest.test_case "recycle vs fresh differential" `Quick
      test_recycle_vs_fresh_differential;
    Alcotest.test_case "recycle no leak under faults" `Quick
      test_recycle_no_leak_under_faults;
    Alcotest.test_case "recycle identical across domains" `Quick
      test_recycle_identical_across_domains;
    Alcotest.test_case "pool holds at most one shell per domain" `Quick test_pool_bound;
  ]
