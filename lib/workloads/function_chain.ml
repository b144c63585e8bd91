(* Touch cost per link: a light streaming pass over the payload. *)
let touch_ns_per_byte = 0.08

let checksum data =
  let n = Bytes.length data in
  let acc = ref 0xcbf29ce484222325L in
  (* FNV-ish over 8-byte strides: cheap but order-sensitive. *)
  let i = ref 0 in
  while !i + 8 <= n do
    acc := Int64.mul (Int64.logxor !acc (Bytes.get_int64_le data !i)) 0x100000001b3L;
    i := !i + 8
  done;
  while !i < n do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (Bytes.get data !i))))
        0x100000001b3L;
    incr i
  done;
  !acc

let slot i = Printf.sprintf "fc.hop.%d" i

let head_kernel ~seed ~payload (ctx : Fctx.t) =
  let data = Datagen.payload ~seed payload in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      Fctx.compute_bytes ctx ~ns_per_byte:touch_ns_per_byte payload);
  ctx.Fctx.phase Fctx.phase_transfer (fun () -> ctx.Fctx.send ~slot:(slot 0) data)

let link_kernel ~index (ctx : Fctx.t) =
  let data = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_transfer (fun () -> data := ctx.Fctx.recv ~slot:(slot (index - 1)));
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      ignore (checksum !data);
      Fctx.compute_bytes ctx ~ns_per_byte:touch_ns_per_byte (Bytes.length !data));
  ctx.Fctx.phase Fctx.phase_transfer (fun () -> ctx.Fctx.send ~slot:(slot index) !data)

let tail_kernel ~index ~expected (ctx : Fctx.t) =
  let data = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_transfer (fun () -> data := ctx.Fctx.recv ~slot:(slot (index - 1)));
  let sum = checksum !data in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      Fctx.compute_bytes ctx ~ns_per_byte:touch_ns_per_byte (Bytes.length !data));
  if not (Int64.equal sum (Lazy.force expected)) then
    failwith "FunctionChain: payload corrupted along the chain";
  ctx.Fctx.println (Printf.sprintf "chain checksum %Lx" sum)

let app ~seed ~payload ~length =
  if length < 2 then invalid_arg "Function_chain.app: length must be >= 2";
  (* The payload's checksum, computed once for every run of the app. *)
  let expected = lazy (checksum (Datagen.payload ~seed payload)) in
  let stage i =
    let name = Printf.sprintf "fn%d" i in
    if i = 0 then (name, 1, head_kernel ~seed ~payload)
    else if i = length - 1 then (name, 1, tail_kernel ~index:i ~expected)
    else (name, 1, link_kernel ~index:i)
  in
  {
    Fctx.app_name = "FunctionChain";
    stages = List.init length stage;
    inputs = [];
    validate =
      (fun ~read_output ->
        ignore read_output;
        (* Correctness is asserted in the tail kernel (checksum); the
           chain has no file output. *)
        Ok ());
    modules = [ "mm"; "stdio"; "time" ];
  }
