open Sim
open Mem

type handle = { slot : string; buffer : Libos_mm.buffer option; size : int }

let raw_fingerprint = Fndata.fingerprint (Fndata.Raw Bytes.empty)

let charge_traversal (ctx : Asstd.ctx) len =
  Clock.advance ctx.Asstd.thread.Wfd.clock
    (Units.time_for_bytes ~bytes_per_sec:ctx.Asstd.buffer_bw len)

let charge_ifi (ctx : Asstd.ctx) len =
  if ctx.Asstd.wfd.Wfd.features.Wfd.ifi then
    Clock.advance ctx.Asstd.thread.Wfd.clock (Cost.ifi_transfer_overhead len)

let file_path slot = "/.asbuffer/" ^ slot

(* --- file fallback (ref_passing disabled) --- *)

let file_with_slot ctx ~slot data =
  Asstd.write_whole_file ctx (file_path slot) data;
  (* The intermediate file must be durable before the downstream
     function is signalled. *)
  Clock.advance ctx.Asstd.thread.Wfd.clock Cost.file_fallback_sync;
  { slot; buffer = None; size = Bytes.length data }

let file_from_slot ctx ~slot =
  Clock.advance ctx.Asstd.thread.Wfd.clock Cost.file_fallback_read_penalty;
  let data = Asstd.read_whole_file ctx (file_path slot) in
  (* The receiver copies the file contents into its own memory. *)
  Clock.advance ctx.Asstd.thread.Wfd.clock
    (Units.time_for_bytes ~bytes_per_sec:Cost.memcpy_bw (Bytes.length data));
  data

(* --- reference passing --- *)

let store_encoded ctx ~slot encoded fingerprint =
  let wfd = ctx.Asstd.wfd in
  let thread = ctx.Asstd.thread in
  charge_ifi ctx (Bytes.length encoded);
  (* Smart-pointer construction (§8.3's constant 4.4us). *)
  Clock.advance thread.Wfd.clock Cost.smart_pointer_overhead;
  let buffer =
    Asstd.sys ctx "alloc_buffer" (fun ~clock ->
        match
          Libos_mm.alloc_buffer wfd ~clock ~slot ~size:(Bytes.length encoded)
            ~fingerprint
        with
        | Ok b -> b
        | Error e -> raise (Errno.Error (e, slot)))
  in
  (* The write happens in *user* context: the buffer pages carry the
     buffer key, which the user PKRU grants. *)
  Address_space.store_bytes wfd.Wfd.aspace ~pkru:thread.Wfd.pkru
    buffer.Libos_mm.addr encoded;
  charge_traversal ctx (Bytes.length encoded);
  { slot; buffer = Some buffer; size = Bytes.length encoded }

let load_handle ctx ~slot ~fingerprint =
  let wfd = ctx.Asstd.wfd in
  let thread = ctx.Asstd.thread in
  let buffer =
    Asstd.sys ctx "acquire_buffer" (fun ~clock ->
        match Libos_mm.acquire_buffer wfd ~clock ~slot ~fingerprint with
        | Ok b -> b
        | Error e -> raise (Errno.Error (e, slot)))
  in
  charge_ifi ctx buffer.Libos_mm.size;
  let data =
    Address_space.load_bytes wfd.Wfd.aspace ~pkru:thread.Wfd.pkru
      buffer.Libos_mm.addr buffer.Libos_mm.size
  in
  charge_traversal ctx buffer.Libos_mm.size;
  ({ slot; buffer = Some buffer; size = buffer.Libos_mm.size }, data)

let transfer_histo = Metrics.histogram "asbuffer.transfer_bytes"

(* Every producer/consumer entry point is one "transfer" span; the io /
   network sub-steps it performs (buffer syscalls, the file fallback's
   reads and writes) open their own spans inside it, so the breakdown
   splits reference passing (transfer-dominated) from the file fallback
   (io-dominated) for free. *)
let transfer_span ctx ~label ~slot f =
  if Span.enabled (Span.current ()) then
    Asstd.with_span ctx ~category:"transfer" ~label:(label ^ " " ^ slot) f
  else f ()

let with_slot ctx ~slot value =
  transfer_span ctx ~label:"put" ~slot (fun () ->
      let encoded = Fndata.encode value in
      Metrics.observe transfer_histo (float_of_int (Bytes.length encoded));
      if ctx.Asstd.wfd.Wfd.features.Wfd.ref_passing then
        store_encoded ctx ~slot encoded (Fndata.fingerprint value)
      else file_with_slot ctx ~slot encoded)

let from_slot ctx ~slot ~expect =
  transfer_span ctx ~label:"get" ~slot (fun () ->
      if ctx.Asstd.wfd.Wfd.features.Wfd.ref_passing then begin
        let handle, data =
          load_handle ctx ~slot ~fingerprint:(Fndata.fingerprint expect)
        in
        let value = Fndata.decode data in
        (* Ownership moved to the receiver, which has now consumed the
           value; recover the heap block. *)
        (match handle.buffer with
        | Some b -> Libos_mm.free_buffer ctx.Asstd.wfd b
        | None -> ());
        value
      end
      else Fndata.decode (file_from_slot ctx ~slot))

(* A raw transfer: its transfer span inside the named host section
   ("asbuffer.put"/"asbuffer.get"), which closes on every exit. *)
let raw_transfer ctx ~section ~label ~slot f =
  let hs = Hotspot.enter section in
  match transfer_span ctx ~label ~slot f with
  | v ->
      Hotspot.leave hs;
      v
  | exception e ->
      Hotspot.leave hs;
      raise e

let with_slot_raw ctx ~slot data =
  raw_transfer ctx ~section:"asbuffer.put" ~label:"put" ~slot (fun () ->
      Metrics.observe transfer_histo (float_of_int (Bytes.length data));
      if ctx.Asstd.wfd.Wfd.features.Wfd.ref_passing then
        store_encoded ctx ~slot data raw_fingerprint
      else file_with_slot ctx ~slot data)

let from_slot_raw ctx ~slot =
  raw_transfer ctx ~section:"asbuffer.get" ~label:"get" ~slot (fun () ->
      if ctx.Asstd.wfd.Wfd.features.Wfd.ref_passing then begin
        let handle, data = load_handle ctx ~slot ~fingerprint:raw_fingerprint in
        (* Free immediately: ownership transferred to the receiver, which
           consumes the bytes it just traversed. *)
        (match handle.buffer with
        | Some b -> Libos_mm.free_buffer ctx.Asstd.wfd b
        | None -> ());
        data
      end
      else file_from_slot ctx ~slot)

(* Consume a raw slot without materialising the payload: the virtual
   path is byte-for-byte the one [from_slot_raw] takes — same buffer
   syscalls, same page traversal (access accounting included), same
   clock charges, same free — but the host-side copy of the bytes is
   never built.  For consumers that model work on the payload
   rather than computing on its contents. *)
let consume_slot_raw ctx ~slot =
  raw_transfer ctx ~section:"asbuffer.get" ~label:"get" ~slot (fun () ->
      if ctx.Asstd.wfd.Wfd.features.Wfd.ref_passing then begin
        let wfd = ctx.Asstd.wfd in
        let thread = ctx.Asstd.thread in
        let buffer =
          Asstd.sys ctx "acquire_buffer" (fun ~clock ->
              match Libos_mm.acquire_buffer wfd ~clock ~slot ~fingerprint:raw_fingerprint with
              | Ok b -> b
              | Error e -> raise (Errno.Error (e, slot)))
        in
        charge_ifi ctx buffer.Libos_mm.size;
        Address_space.touch_bytes wfd.Wfd.aspace ~pkru:thread.Wfd.pkru
          buffer.Libos_mm.addr buffer.Libos_mm.size;
        charge_traversal ctx buffer.Libos_mm.size;
        Libos_mm.free_buffer wfd buffer;
        buffer.Libos_mm.size
      end
      else Bytes.length (file_from_slot ctx ~slot))

let free ctx handle =
  match handle.buffer with
  | Some b -> Libos_mm.free_buffer ctx.Asstd.wfd b
  | None -> ()
