open Alloystack_core

let take (ctx : Asstd.ctx) ~slot ~fingerprint =
  let wfd = ctx.Asstd.wfd and thread = ctx.Asstd.thread in
  let buffer =
    Asstd.sys ctx "acquire_buffer" (fun ~clock ->
        match Libos_mm.acquire_buffer wfd ~clock ~slot ~fingerprint with
        | Ok b -> b
        | Error e -> raise (Errno.Error (e, slot)))
  in
  let len = Libos_mm.size buffer in
  if wfd.Wfd.features.Wfd.ifi then
    Sim.Clock.advance thread.Wfd.clock (Cost.ifi_transfer_overhead len);
  let data =
    Mem.Address_space.load_bytes wfd.Wfd.aspace ~pkru:thread.Wfd.pkru buffer.Libos_mm.addr
      len
  in
  Sim.Clock.advance thread.Wfd.clock
    (Sim.Units.time_for_bytes ~bytes_per_sec:ctx.Asstd.buffer_bw len);
  Libos_mm.free_buffer wfd buffer;
  data

let from_slot_raw ctx ~slot =
  take ctx ~slot ~fingerprint:(Fndata.fingerprint (Fndata.Raw Bytes.empty))

let from_slot ctx ~slot ~expect =
  Fndata.decode (take ctx ~slot ~fingerprint:(Fndata.fingerprint expect))
