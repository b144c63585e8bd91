open Sim

type t = {
  store : (string, bytes) Hashtbl.t;
  link : Link.t;
  server_clock : Clock.t;
}

let create ?(link = Link.datacenter) () =
  { store = Hashtbl.create 64; link; server_clock = Clock.create () }

let encode_set key value =
  Printf.sprintf "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n" (String.length key)
    key (Bytes.length value) (Bytes.to_string value)

let encode_get key =
  Printf.sprintf "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n" (String.length key) key

type client = { server : t; conn : Tcp.t; clock : Clock.t }

let connect server clock =
  let conn =
    Tcp.connect ~client:clock ~server:server.server_clock ~link:server.link
      ~client_profile:Tcp.linux ~server_profile:Tcp.linux ()
  in
  { server; conn; clock }

(* Serialisation: ~1.1 GB/s for a protobuf/JSON-ish encode plus fixed
   dispatch overhead. *)
let serialization_cost n =
  Units.add (Units.us 3) (Units.time_for_bytes ~bytes_per_sec:1.1e9 n)

let command_overhead = Units.us 8 (* server-side command parse + index *)

let set client key value =
  Clock.advance client.clock (serialization_cost (Bytes.length value));
  (* RESP framing and payload travel as separate segments so large
     values avoid a giant concatenation. *)
  let header =
    Printf.sprintf "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n" (String.length key) key
      (Bytes.length value)
  in
  Tcp.send client.conn ~from_client:true (Bytes.of_string header);
  Tcp.send client.conn ~from_client:true value;
  Tcp.send client.conn ~from_client:true (Bytes.of_string "\r\n");
  (* The server stores the value bytes it received. *)
  Tcp.discard client.conn ~at_client:false (String.length header);
  let received = Tcp.recv client.conn ~at_client:false (Bytes.length value) in
  Tcp.discard client.conn ~at_client:false 2;
  Clock.advance client.server.server_clock command_overhead;
  Hashtbl.replace client.server.store key received;
  (* +OK reply *)
  Tcp.send client.conn ~from_client:false (Bytes.of_string "+OK\r\n");
  Tcp.discard client.conn ~at_client:true 5

let get client key =
  let payload = Bytes.of_string (encode_get key) in
  Tcp.send client.conn ~from_client:true payload;
  Tcp.discard client.conn ~at_client:false (Bytes.length payload);
  Clock.advance client.server.server_clock command_overhead;
  match Hashtbl.find_opt client.server.store key with
  | None ->
      Tcp.send client.conn ~from_client:false (Bytes.of_string "$-1\r\n");
      Tcp.discard client.conn ~at_client:true 5;
      None
  | Some value ->
      let header = Printf.sprintf "$%d\r\n" (Bytes.length value) in
      Tcp.send client.conn ~from_client:false (Bytes.of_string header);
      Tcp.send client.conn ~from_client:false value;
      Tcp.send client.conn ~from_client:false (Bytes.of_string "\r\n");
      Tcp.discard client.conn ~at_client:true (String.length header);
      let body = Tcp.recv client.conn ~at_client:true (Bytes.length value) in
      Tcp.discard client.conn ~at_client:true 2;
      Clock.advance client.clock (serialization_cost (Bytes.length value));
      Some body

let del client key =
  let existed = Hashtbl.mem client.server.store key in
  Hashtbl.remove client.server.store key;
  Clock.advance client.clock (Units.add (Link.rtt client.server.link) command_overhead);
  existed

let exists client key =
  Clock.advance client.clock (Units.add (Link.rtt client.server.link) command_overhead);
  Hashtbl.mem client.server.store key

let stored_keys t = Hashtbl.length t.store
