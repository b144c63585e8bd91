type t =
  | Unit
  | Int of int64
  | Str of string
  | Raw of bytes
  | Pair of t * t
  | List of t list
  | Record of (string * t) list

(* Structural hash over shape only: constructor tags and field names.
   Lists hash the shape of their first element (homogeneous by
   convention), so [List []] and [List [Int _]] differ, but two
   non-empty int lists agree. *)
let rec fingerprint = function
  | Unit -> 0x11L
  | Int _ -> 0x22L
  | Str _ -> 0x33L
  | Raw _ -> 0x44L
  | Pair (a, b) ->
      Int64.add 0x55L (Int64.add (Int64.mul (fingerprint a) 31L) (fingerprint b))
  | List [] -> 0x66L
  | List (x :: _) -> Int64.add 0x77L (Int64.mul (fingerprint x) 131L)
  | Record fields ->
      List.fold_left
        (fun acc (name, v) ->
          let h = Int64.of_int (Hashtbl.hash name) in
          Int64.add (Int64.mul acc 1000003L) (Int64.add h (fingerprint v)))
        0x88L fields

let buf_add_int64 buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Buffer.add_bytes buf b

let buf_add_len buf n = buf_add_int64 buf (Int64.of_int n)

let rec encode_into buf = function
  | Unit -> Buffer.add_char buf '\000'
  | Int v ->
      Buffer.add_char buf '\001';
      buf_add_int64 buf v
  | Str s ->
      Buffer.add_char buf '\002';
      buf_add_len buf (String.length s);
      Buffer.add_string buf s
  | Raw b ->
      Buffer.add_char buf '\003';
      buf_add_len buf (Bytes.length b);
      Buffer.add_bytes buf b
  | Pair (a, b) ->
      Buffer.add_char buf '\004';
      encode_into buf a;
      encode_into buf b
  | List items ->
      Buffer.add_char buf '\005';
      buf_add_len buf (List.length items);
      List.iter (encode_into buf) items
  | Record fields ->
      Buffer.add_char buf '\006';
      buf_add_len buf (List.length fields);
      List.iter
        (fun (name, v) ->
          buf_add_len buf (String.length name);
          Buffer.add_string buf name;
          encode_into buf v)
        fields

let encode v =
  let buf = Buffer.create 64 in
  encode_into buf v;
  Buffer.to_bytes buf

type cursor = { data : bytes; mutable off : int }

let bad fmt = Format.kasprintf invalid_arg fmt

let read_byte c =
  if c.off >= Bytes.length c.data then bad "Fndata.decode: truncated";
  let b = Bytes.get c.data c.off in
  c.off <- c.off + 1;
  b

let read_int64 c =
  if c.off + 8 > Bytes.length c.data then bad "Fndata.decode: truncated int64";
  let v = Bytes.get_int64_le c.data c.off in
  c.off <- c.off + 8;
  v

let read_len c =
  let v = Int64.to_int (read_int64 c) in
  if v < 0 || c.off + v > Bytes.length c.data then bad "Fndata.decode: bad length %d" v;
  v

let read_bytes c n =
  let b = Bytes.sub c.data c.off n in
  c.off <- c.off + n;
  b

let rec decode_value c =
  match Char.code (read_byte c) with
  | 0 -> Unit
  | 1 -> Int (read_int64 c)
  | 2 ->
      let n = read_len c in
      Str (Bytes.to_string (read_bytes c n))
  | 3 ->
      let n = read_len c in
      Raw (read_bytes c n)
  | 4 ->
      let a = decode_value c in
      let b = decode_value c in
      Pair (a, b)
  | 5 ->
      let n = Int64.to_int (read_int64 c) in
      if n < 0 then bad "Fndata.decode: negative list length";
      List (List.init n (fun _ -> decode_value c))
  | 6 ->
      let n = Int64.to_int (read_int64 c) in
      if n < 0 then bad "Fndata.decode: negative record length";
      Record
        (List.init n (fun _ ->
             let k = read_len c in
             let name = Bytes.to_string (read_bytes c k) in
             (name, decode_value c)))
  | tag -> bad "Fndata.decode: unknown tag %d" tag

let decode data =
  let c = { data; off = 0 } in
  let v = decode_value c in
  if c.off <> Bytes.length data then bad "Fndata.decode: trailing bytes";
  v

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Int x, Int y -> Int64.equal x y
  | Str x, Str y -> String.equal x y
  | Raw x, Raw y -> Bytes.equal x y
  | Pair (a1, a2), Pair (b1, b2) -> equal a1 b1 && equal a2 b2
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Record xs, Record ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
           xs ys
  | (Unit | Int _ | Str _ | Raw _ | Pair _ | List _ | Record _), _ -> false

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Int v -> Format.fprintf fmt "%Ld" v
  | Str s -> Format.fprintf fmt "%S" s
  | Raw b -> Format.fprintf fmt "<raw %d bytes>" (Bytes.length b)
  | Pair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b
  | List items ->
      Format.fprintf fmt "[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp)
        items
  | Record fields ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.fprintf f "; ")
           (fun f (k, v) -> Format.fprintf f "%s = %a" k pp v))
        fields

let record_get v name =
  match v with
  | Record fields -> begin
      match List.assoc_opt name fields with
      | Some x -> x
      | None -> raise Not_found
    end
  | _ -> invalid_arg "Fndata.record_get: not a record"
