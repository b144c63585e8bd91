(* Tests for the network simulation: TCP state machine and delivery,
   stack profiles, HTTP codec, Redis KV server. *)

open Sim
open Netsim

let connect ?(link = Link.loopback) ?(cp = Tcp.linux) ?(sp = Tcp.linux) () =
  let client = Clock.create () and server = Clock.create () in
  let conn =
    Tcp.connect ~client ~server ~link ~client_profile:cp ~server_profile:sp ()
  in
  (conn, client, server)

let test_tcp_handshake_states () =
  let conn, client, server = connect () in
  (match Tcp.state conn with
  | Tcp.Established, Tcp.Established -> ()
  | _ -> Alcotest.fail "expected both Established");
  (* One RTT-ish elapsed on both clocks. *)
  Alcotest.(check bool) "client time advanced" true
    (Units.( > ) (Clock.now client) Units.zero);
  Alcotest.(check bool) "server time advanced" true
    (Units.( > ) (Clock.now server) Units.zero)

let test_tcp_delivery () =
  let conn, _, _ = connect () in
  let data = Bytes.init 10_000 (fun i -> Char.chr (i mod 256)) in
  Tcp.send conn ~from_client:true data;
  Alcotest.(check int) "available" 10_000 (Tcp.available conn ~at_client:false);
  let got = Tcp.recv conn ~at_client:false 10_000 in
  Alcotest.(check bytes) "delivered exactly" data got;
  (* Reverse direction. *)
  Tcp.send conn ~from_client:false (Bytes.of_string "pong");
  Alcotest.(check bytes) "reverse" (Bytes.of_string "pong")
    (Tcp.recv conn ~at_client:true 10)

let test_tcp_segmentation () =
  let conn, _, _ = connect () in
  Tcp.send conn ~from_client:true (Bytes.make 14_600 'a');
  (* 14600 / 1460 = exactly 10 segments. *)
  Alcotest.(check int) "segment count" 10 (Tcp.segments_sent conn)

let test_tcp_close_states () =
  let conn, _, _ = connect () in
  Tcp.close conn;
  (match Tcp.state conn with
  | Tcp.Time_wait, Tcp.Closed -> ()
  | _ -> Alcotest.fail "expected TIME_WAIT/CLOSED");
  match Tcp.send conn ~from_client:true (Bytes.of_string "x") with
  | () -> Alcotest.fail "send after close must fail"
  | exception Invalid_argument _ -> ()

let test_tcp_smoltcp_slower () =
  (* Same payload: smoltcp endpoints take longer than Linux endpoints. *)
  let payload = Bytes.make (Units.mib 4) 'b' in
  let measure cp sp =
    let conn, client, _ = connect ~cp ~sp () in
    let t0 = Clock.now client in
    Tcp.send conn ~from_client:true payload;
    ignore (Tcp.recv conn ~at_client:false (Bytes.length payload));
    Clock.elapsed_since client t0
  in
  let linux_time = measure Tcp.linux Tcp.linux in
  let smol_time = measure Tcp.smoltcp Tcp.smoltcp in
  Alcotest.(check bool) "smoltcp slower" true (Units.( > ) smol_time linux_time)

let test_tcp_throughput_estimates () =
  (* Table 4 calibration: smoltcp RX ~1.75 Gbit/s, TX ~5.37 Gbit/s,
     Linux ~28 Gbit/s. *)
  let gbit b = b *. 8.0 /. 1e9 in
  let rx = gbit (Tcp.throughput_estimate Tcp.linux ~link:Link.loopback ~rx:Tcp.smoltcp) in
  Alcotest.(check bool) "smoltcp RX ~1.75" true (rx > 1.55 && rx < 1.95);
  let tx = gbit (Tcp.throughput_estimate Tcp.smoltcp ~link:Link.loopback ~rx:Tcp.linux) in
  Alcotest.(check bool) "smoltcp TX ~5.37" true (tx > 5.0 && tx < 5.8);
  let lin = gbit (Tcp.throughput_estimate Tcp.linux ~link:Link.loopback ~rx:Tcp.linux) in
  Alcotest.(check bool) "linux ~28" true (lin > 25.0 && lin < 31.0)

let tcp_delivery_property =
  QCheck.Test.make ~name:"tcp: byte stream preserved across random sends" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 8) (string_of_size (Gen.int_range 0 5000)))
    (fun chunks ->
      let conn, _, _ = connect () in
      List.iter (fun c -> Tcp.send conn ~from_client:true (Bytes.of_string c)) chunks;
      let total = List.fold_left (fun a c -> a + String.length c) 0 chunks in
      let got = Tcp.recv conn ~at_client:false total in
      Bytes.to_string got = String.concat "" chunks)

(* The receive queue against the one-buffer model it replaced: sends
   and reads of every size, interleaved, with copy-free discards among
   them, read the same bytes in the same order, and [available] agrees
   throughout.  A sender reusing its buffer after [send] changes nothing
   delivered. *)
let test_tcp_interleaved_reads () =
  let conn, _, _ = connect () in
  let model = Buffer.create 16 in
  let next = ref 0 in
  let send n =
    let data = Bytes.init n (fun i -> Char.chr ((!next + i) land 255)) in
    next := !next + n;
    Tcp.send conn ~from_client:true data;
    Buffer.add_bytes model data;
    Bytes.fill data 0 n '!'
  in
  let take n =
    let n = Stdlib.min n (Buffer.length model) in
    let head = Buffer.sub model 0 n in
    let rest = Buffer.sub model n (Buffer.length model - n) in
    Buffer.clear model;
    Buffer.add_string model rest;
    head
  in
  let step = function
    | `Send n -> send n
    | `Recv n ->
        let want = take n in
        Alcotest.(check string) (Printf.sprintf "recv %d" n) want
          (Bytes.to_string (Tcp.recv conn ~at_client:false n))
    | `Discard n ->
        ignore (take n);
        Tcp.discard conn ~at_client:false n
  in
  List.iter
    (fun op ->
      step op;
      Alcotest.(check int) "available" (Buffer.length model) (Tcp.available conn ~at_client:false))
    [
      `Recv 5; `Send 1; `Send 7; `Recv 1; `Recv 3; `Send 300_000; `Recv 4; `Recv 100_000;
      `Discard 2; `Send 0; `Send 3; `Recv 199_995; `Send 1_500_000; `Send 10; `Discard 700_001;
      `Recv 1; `Recv 799_999; `Recv 11; `Send 2_000; `Recv 2_000; `Recv 1; `Send 64; `Discard 100;
      `Send 5; `Recv 5;
    ]

let test_redis_stores_a_copy () =
  let server = Redis.create () in
  let client = Redis.connect server (Clock.create ()) in
  let value = Bytes.of_string "intermediate data" in
  Redis.set client "k" value;
  Bytes.fill value 0 (Bytes.length value) '?';
  Alcotest.(check (option bytes)) "stored bytes unchanged"
    (Some (Bytes.of_string "intermediate data")) (Redis.get client "k")

let tcp_time_monotonic_property =
  QCheck.Test.make ~name:"tcp: transfers only move clocks forward, larger takes longer"
    ~count:60
    QCheck.(pair (int_range 1 200_000) (int_range 1 200_000))
    (fun (a, b) ->
      let measure size =
        let conn, client, server = connect () in
        let before_c = Clock.now client and before_s = Clock.now server in
        Tcp.send conn ~from_client:true (Bytes.make size 'x');
        ignore (Tcp.recv conn ~at_client:false size);
        Units.( >= ) (Clock.now client) before_c
        && Units.( > ) (Clock.now server) before_s
      in
      measure a && measure b)

let test_http_request_roundtrip () =
  let req =
    Http.request ~headers:[ ("Host", "wfd0"); ("X-Trace", "abc") ] ~body:"{\"k\":1}"
      ~meth:"POST" ~path:"/wf/pipeline" ()
  in
  match Http.decode_request (Http.encode_request req) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      Alcotest.(check string) "meth" "POST" decoded.Http.meth;
      Alcotest.(check string) "path" "/wf/pipeline" decoded.Http.path;
      Alcotest.(check string) "body" "{\"k\":1}" decoded.Http.body;
      Alcotest.(check (option string)) "header case-insensitive" (Some "wfd0")
        (Http.header decoded.Http.headers "host");
      Alcotest.(check (option string)) "content-length added" (Some "7")
        (Http.header decoded.Http.headers "content-length")

let test_http_response_roundtrip () =
  let resp = Http.ok ~headers:[ ("Content-Type", "text/plain") ] "hello" in
  match Http.decode_response (Http.encode_response resp) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      Alcotest.(check int) "status" 200 decoded.Http.status;
      Alcotest.(check string) "reason" "OK" decoded.Http.reason;
      Alcotest.(check string) "body" "hello" decoded.Http.resp_body

let test_http_malformed () =
  (match Http.decode_request "garbage" with
  | Ok _ -> Alcotest.fail "garbage must not parse"
  | Error _ -> ());
  match Http.decode_response "HTTP/1.1 abc\r\n\r\n" with
  | Ok _ -> Alcotest.fail "bad status must not parse"
  | Error _ -> ()

let test_redis_set_get () =
  let server = Redis.create () in
  let clock = Clock.create () in
  let client = Redis.connect server clock in
  let value = Bytes.of_string "intermediate data" in
  Redis.set client "slot1" value;
  Alcotest.(check int) "stored" 1 (Redis.stored_keys server);
  (match Redis.get client "slot1" with
  | Some got -> Alcotest.(check bytes) "roundtrip" value got
  | None -> Alcotest.fail "missing key");
  Alcotest.(check (option bytes)) "unknown key" None (Redis.get client "nope");
  Alcotest.(check bool) "del" true (Redis.del client "slot1");
  Alcotest.(check bool) "del again" false (Redis.del client "slot1")

let test_redis_costs_time () =
  let server = Redis.create () in
  let clock = Clock.create () in
  let client = Redis.connect server clock in
  let after_connect = Clock.now clock in
  Alcotest.(check bool) "connect costs" true (Units.( > ) after_connect Units.zero);
  Redis.set client "k" (Bytes.make (Units.mib 1) 'x');
  let after_set = Clock.now clock in
  (* 1MB over the datacenter link + serialisation: at least 300us. *)
  Alcotest.(check bool) "set charges realistic time" true
    (Units.( > ) (Units.sub after_set after_connect) (Units.us 300));
  ignore (Redis.get client "k");
  Alcotest.(check bool) "get charges too" true
    (Units.( > ) (Units.sub (Clock.now clock) after_set) (Units.us 300))

let test_redis_resp_encoding () =
  Alcotest.(check string) "set wire format"
    "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nhi\r\n"
    (Redis.encode_set "k" (Bytes.of_string "hi"));
  Alcotest.(check string) "get wire format" "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
    (Redis.encode_get "k")

let redis_roundtrip_property =
  QCheck.Test.make ~name:"redis: arbitrary payload roundtrips" ~count:60
    QCheck.(string_of_size (Gen.int_range 0 10_000))
    (fun s ->
      let server = Redis.create () in
      let client = Redis.connect server (Clock.create ()) in
      Redis.set client "k" (Bytes.of_string s);
      match Redis.get client "k" with
      | Some got -> Bytes.to_string got = s
      | None -> false)

let suite =
  [
    Alcotest.test_case "tcp handshake states" `Quick test_tcp_handshake_states;
    Alcotest.test_case "tcp delivery" `Quick test_tcp_delivery;
    Alcotest.test_case "tcp segmentation" `Quick test_tcp_segmentation;
    Alcotest.test_case "tcp close states" `Quick test_tcp_close_states;
    Alcotest.test_case "tcp smoltcp slower than linux" `Quick test_tcp_smoltcp_slower;
    Alcotest.test_case "tcp Table-4 throughputs" `Quick test_tcp_throughput_estimates;
    QCheck_alcotest.to_alcotest tcp_delivery_property;
    QCheck_alcotest.to_alcotest tcp_time_monotonic_property;
    Alcotest.test_case "tcp interleaved reads match one-buffer model" `Quick
      test_tcp_interleaved_reads;
    Alcotest.test_case "http request roundtrip" `Quick test_http_request_roundtrip;
    Alcotest.test_case "http response roundtrip" `Quick test_http_response_roundtrip;
    Alcotest.test_case "http malformed" `Quick test_http_malformed;
    Alcotest.test_case "redis set/get/del" `Quick test_redis_set_get;
    Alcotest.test_case "redis virtual-time costs" `Quick test_redis_costs_time;
    Alcotest.test_case "redis RESP encoding" `Quick test_redis_resp_encoding;
    QCheck_alcotest.to_alcotest redis_roundtrip_property;
    Alcotest.test_case "redis stores a copy of the value" `Quick test_redis_stores_a_copy;
  ]
