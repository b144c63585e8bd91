let capacity = 65_536

type t = { buf : Buffer.t }

let create () = { buf = Buffer.create capacity }

let write t data =
  let space = capacity - Buffer.length t.buf in
  let n = Stdlib.min space (Bytes.length data) in
  Buffer.add_subbytes t.buf data 0 n;
  n

let read t n =
  let have = Buffer.length t.buf in
  let take = Stdlib.min n have in
  let out = Bytes.of_string (Buffer.sub t.buf 0 take) in
  let rest = Buffer.sub t.buf take (have - take) in
  Buffer.clear t.buf;
  Buffer.add_string t.buf rest;
  out

let is_empty t = Buffer.length t.buf = 0

let transfer_chunks len = if len <= 0 then 0 else (len + capacity - 1) / capacity
