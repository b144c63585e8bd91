type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; message : string }

let fail pos fmt =
  Format.kasprintf (fun message -> raise (Parse_error { pos; message })) fmt

type state = { input : string; mutable pos : int }

let peek s = if s.pos < String.length s.input then Some s.input.[s.pos] else None

let advance s = s.pos <- s.pos + 1

let rec skip_ws s =
  match peek s with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance s;
      skip_ws s
  | Some _ | None -> ()

let expect s c =
  match peek s with
  | Some got when got = c -> advance s
  | Some got -> fail s.pos "expected '%c', found '%c'" c got
  | None -> fail s.pos "expected '%c', found end of input" c

let parse_literal s word value =
  let n = String.length word in
  if s.pos + n <= String.length s.input && String.sub s.input s.pos n = word then begin
    s.pos <- s.pos + n;
    value
  end
  else fail s.pos "invalid literal"

(* The four hex digits of a \uXXXX escape. *)
let parse_hex4 s =
  let start = s.pos in
  if start + 4 > String.length s.input then fail start "truncated \\u escape";
  let digit i =
    match s.input.[start + i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | c -> fail (start + i) "invalid hex digit '%c' in \\u escape" c
  in
  let v = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
  s.pos <- start + 4;
  v

(* The code point of a \uXXXX escape whose backslash and [u] are
   consumed: a high surrogate must be followed by an escaped low one,
   and the pair combines; a lone surrogate is an error. *)
let parse_code_point s =
  let start = s.pos - 2 in
  let hi = parse_hex4 s in
  if hi >= 0xDC00 && hi <= 0xDFFF then fail start "lone low surrogate \\u%04X" hi
  else if hi >= 0xD800 && hi <= 0xDBFF then begin
    if
      s.pos + 2 <= String.length s.input
      && s.input.[s.pos] = '\\'
      && s.input.[s.pos + 1] = 'u'
    then begin
      s.pos <- s.pos + 2;
      let lo = parse_hex4 s in
      if lo < 0xDC00 || lo > 0xDFFF then fail start "lone high surrogate \\u%04X" hi;
      Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
    end
    else fail start "lone high surrogate \\u%04X" hi
  end
  else Uchar.of_int hi

let parse_string_body s =
  expect s '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek s with
    | None -> fail s.pos "unterminated string"
    | Some '"' ->
        advance s;
        Buffer.contents buf
    | Some '\\' -> begin
        advance s;
        match peek s with
        | None -> fail s.pos "unterminated escape"
        | Some c ->
            advance s;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' -> Buffer.add_utf_8_uchar buf (parse_code_point s)
            | other -> fail (s.pos - 1) "unsupported escape '\\%c'" other);
            go ()
      end
    | Some c ->
        advance s;
        Buffer.add_char buf c;
        go ()
  in
  go ()

(* RFC 8259 §6: -? (0 | [1-9][0-9]* ) (\.[0-9]+)? ([eE][+-]?[0-9]+)?.
   A number with neither fraction nor exponent that fits in an [int] is
   an [Int]; every other number is a [Float]. *)
let parse_number s =
  let start = s.pos in
  let is_digit = function Some '0' .. '9' -> true | Some _ | None -> false in
  let digits () =
    if not (is_digit (peek s)) then fail s.pos "expected a digit in number";
    while is_digit (peek s) do
      advance s
    done
  in
  if peek s = Some '-' then advance s;
  if peek s = Some '0' then begin
    advance s;
    if is_digit (peek s) then fail start "leading zero in number"
  end
  else digits ();
  let integral = ref true in
  if peek s = Some '.' then begin
    advance s;
    integral := false;
    digits ()
  end;
  (match peek s with
  | Some ('e' | 'E') ->
      advance s;
      integral := false;
      (match peek s with Some ('+' | '-') -> advance s | Some _ | None -> ());
      digits ()
  | Some _ | None -> ());
  let text = String.sub s.input start (s.pos - start) in
  match if !integral then int_of_string_opt text else None with
  | Some i -> Int i
  | None -> Float (float_of_string text)

let rec parse_value s =
  skip_ws s;
  match peek s with
  | None -> fail s.pos "unexpected end of input"
  | Some '{' -> parse_obj s
  | Some '[' -> parse_list s
  | Some '"' -> String (parse_string_body s)
  | Some 't' -> parse_literal s "true" (Bool true)
  | Some 'f' -> parse_literal s "false" (Bool false)
  | Some 'n' -> parse_literal s "null" Null
  | Some ('-' | '0' .. '9') -> parse_number s
  | Some c -> fail s.pos "unexpected character '%c'" c

and parse_obj s =
  expect s '{';
  skip_ws s;
  if peek s = Some '}' then begin
    advance s;
    Obj []
  end
  else begin
    let rec fields acc =
      skip_ws s;
      let key = parse_string_body s in
      skip_ws s;
      expect s ':';
      let value = parse_value s in
      skip_ws s;
      match peek s with
      | Some ',' ->
          advance s;
          fields ((key, value) :: acc)
      | Some '}' ->
          advance s;
          Obj (List.rev ((key, value) :: acc))
      | _ -> fail s.pos "expected ',' or '}' in object"
    in
    fields []
  end

and parse_list s =
  expect s '[';
  skip_ws s;
  if peek s = Some ']' then begin
    advance s;
    List []
  end
  else begin
    let rec items acc =
      let value = parse_value s in
      skip_ws s;
      match peek s with
      | Some ',' ->
          advance s;
          items (value :: acc)
      | Some ']' ->
          advance s;
          List (List.rev (value :: acc))
      | _ -> fail s.pos "expected ',' or ']' in array"
    in
    items []
  end

let parse input =
  let s = { input; pos = 0 } in
  let v = parse_value s in
  skip_ws s;
  (match peek s with
  | Some c -> fail s.pos "trailing content starting with '%c'" c
  | None -> ());
  v

let parse_result input =
  match parse input with
  | v -> Ok v
  | exception Parse_error { pos; message } ->
      Error (Printf.sprintf "at offset %d: %s" pos message)

(* Plain fixed-point decimals.  [%g] switches to exponent notation
   ("1.92776e+06") for large magnitudes — valid JSON but hostile to
   diffs and ad-hoc readers — and rounds to 6 significant digits.
   Instead print the shortest [%.*f] that parses back to the same
   double (always at least one decimal, so floats stay floats through
   a round-trip); magnitudes outside sensible fixed-point range fall
   back to a round-tripping [%.17g], and non-finite values (which JSON
   cannot represent) become [null]. *)
let float_to_string f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else
    let abs = Float.abs f in
    if abs <> 0.0 && (abs >= 1e18 || abs < 1e-9) then Printf.sprintf "%.17g" f
    else
      (* abs >= 1e-9 needs at most 9 leading zeros + 17 significant
         decimals after the point to round-trip. *)
      let rec pick p =
        if p > 26 then Printf.sprintf "%.17g" f
        else
          let s = Printf.sprintf "%.*f" p f in
          if float_of_string s = f then s else pick (p + 1)
      in
      pick 1

(* Render into one growable buffer rather than concatenating per-node
   strings: a deep tree allocates O(output) instead of O(output ×
   depth).  Strings get JSON escapes: the two-character forms where
   JSON has one, \u00XX for every other control byte and DEL, and
   bytes from 0x80 up pass through (UTF-8 text stays as it is).  Runs
   that need no escape are appended in one piece. *)
let needs_escape c = c < ' ' || c = '"' || c = '\\' || c = '\127'

let add_escape buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c -> Printf.bprintf buf "\\u%04x" (Char.code c)

let add_quoted buf s =
  Buffer.add_char buf '"';
  let from = ref 0 in
  for i = 0 to String.length s - 1 do
    if needs_escape s.[i] then begin
      Buffer.add_substring buf s !from (i - !from);
      add_escape buf s.[i];
      from := i + 1
    end
  done;
  Buffer.add_substring buf s !from (String.length s - !from);
  Buffer.add_char buf '"'

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> add_quoted buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add_json buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_quoted buf k;
          Buffer.add_string buf ": ";
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_json buf v;
  Buffer.contents buf

let member key = function
  | Obj fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> invalid_arg (Printf.sprintf "Jsonlite.member %S: not an object" key)

let get_string = function
  | String s -> s
  | v -> invalid_arg (Printf.sprintf "Jsonlite.get_string: %s" (to_string v))

let get_int = function
  | Int i -> i
  | v -> invalid_arg (Printf.sprintf "Jsonlite.get_int: %s" (to_string v))

let get_list = function
  | List l -> l
  | v -> invalid_arg (Printf.sprintf "Jsonlite.get_list: %s" (to_string v))

let get_obj = function
  | Obj o -> o
  | v -> invalid_arg (Printf.sprintf "Jsonlite.get_obj: %s" (to_string v))

let member_string ?default key obj =
  match (member key obj, default) with
  | Null, Some d -> d
  | Null, None -> invalid_arg (Printf.sprintf "Jsonlite: missing field %S" key)
  | v, _ -> get_string v

let member_int ?default key obj =
  match (member key obj, default) with
  | Null, Some d -> d
  | Null, None -> invalid_arg (Printf.sprintf "Jsonlite: missing field %S" key)
  | v, _ -> get_int v

let member_list key obj =
  match member key obj with Null -> [] | v -> get_list v
