let slot = "pipe.data"
let warm_slot = "pipe.warm"

let app ~seed ~size =
  let payload = Datagen.payload ~seed size in
  let expected = Function_chain.checksum payload in
  (* A one-byte warmup exchange first, attributed to its own phase:
     the paper measures the transfer itself, not the one-time module
     loading the first syscall triggers. *)
  let sender (ctx : Fctx.t) =
    ctx.Fctx.phase "warmup" (fun () -> ctx.Fctx.send ~slot:warm_slot (Bytes.make 1 'w'));
    ctx.Fctx.phase Fctx.phase_transfer (fun () -> ctx.Fctx.send ~slot payload)
  in
  let receiver (ctx : Fctx.t) =
    ctx.Fctx.phase "warmup" (fun () -> ignore (ctx.Fctx.recv ~slot:warm_slot));
    let data = ref Bytes.empty in
    ctx.Fctx.phase Fctx.phase_transfer (fun () -> data := ctx.Fctx.recv ~slot);
    if not (Int64.equal (Function_chain.checksum !data) expected) then
      failwith "pipe: payload corrupted in transfer";
    ctx.Fctx.println "pipe ok"
  in
  {
    Fctx.app_name = "pipe";
    stages = [ ("sender", 1, sender); ("receiver", 1, receiver) ];
    inputs = [];
    validate = (fun ~read_output:_ -> Ok ());
    modules = [ "mm"; "stdio" ];
  }

let noops =
  {
    Fctx.app_name = "no-ops";
    stages = [ ("noop", 1, fun _ctx -> ()) ];
    inputs = [];
    validate = (fun ~read_output:_ -> Ok ());
    modules = [];
  }
