open Sim
open Mem

type buffer = { addr : int; fingerprint : int64; payload : bytes }

let size buffer = Bytes.length buffer.payload

type state = {
  slots : (string, buffer) Hashtbl.t;
  mutable live_bytes : int;
  (* Per-slot bump cursors for anonymous mmaps. *)
  mmap_cursor : (int, int) Hashtbl.t;
}

let key : state Ext.key = Ext.new_key "libos.mm"

let init (wfd : Wfd.t) ~clock =
  ignore clock;
  Ext.set wfd.Wfd.ext key
    { slots = Hashtbl.create 16; live_bytes = 0; mmap_cursor = Hashtbl.create 8 }

let state wfd = Ext.get_exn wfd.Wfd.ext key

let page_round n = (n + Page.size - 1) / Page.size * Page.size

let alloc_buffer (wfd : Wfd.t) ~clock ~slot ~payload ~fingerprint =
  let st = state wfd in
  Clock.advance clock Cost.slot_map_op;
  if Hashtbl.mem st.slots slot then Error Errno.Eexist
  else begin
    let rounded = page_round (Stdlib.max 1 (Bytes.length payload)) in
    match Alloc.alloc wfd.Wfd.buffer_alloc ~size:rounded ~align:Page.size with
    | None -> Error Errno.Enomem
    | Some addr ->
        Address_space.map wfd.Wfd.aspace ~addr ~len:rounded ~perm:Page.rw
          ~pkey:Wfd.buffer_key;
        Hostos.Process.charge_rss wfd.Wfd.proc_table wfd.Wfd.pid rounded;
        Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Mmap);
        let buffer = { addr; fingerprint; payload } in
        Hashtbl.replace st.slots slot buffer;
        st.live_bytes <- st.live_bytes + rounded;
        Ok buffer
  end

let acquire_buffer (wfd : Wfd.t) ~clock ~slot ~fingerprint =
  let st = state wfd in
  Clock.advance clock Cost.slot_map_op;
  match Hashtbl.find_opt st.slots slot with
  | None -> Error Errno.Enoent
  | Some buffer ->
      if not (Int64.equal buffer.fingerprint fingerprint) then Error Errno.Einval
      else begin
        (* Single ownership: the slot entry is removed so no other
           function can acquire the same buffer. *)
        Hashtbl.remove st.slots slot;
        Ok buffer
      end

let free_buffer (wfd : Wfd.t) buffer =
  let st = state wfd in
  let rounded = page_round (Stdlib.max 1 (size buffer)) in
  Address_space.unmap wfd.Wfd.aspace ~addr:buffer.addr ~len:rounded;
  Alloc.free wfd.Wfd.buffer_alloc buffer.addr;
  Hostos.Process.release_rss wfd.Wfd.proc_table wfd.Wfd.pid rounded;
  st.live_bytes <- Stdlib.max 0 (st.live_bytes - rounded)

let peek_slot wfd slot = Hashtbl.find_opt (state wfd).slots slot

let live_slots wfd =
  Hashtbl.fold (fun k _ acc -> k :: acc) (state wfd).slots [] |> List.sort compare

let live_buffer_bytes wfd = (state wfd).live_bytes

let mmap (wfd : Wfd.t) ~clock ~thread ~len =
  let st = state wfd in
  let slot = thread.Wfd.fn_slot in
  let heap = Layout.function_heap slot in
  (* The initial 1 MiB arena is mapped at spawn; anonymous mmaps bump
     upward from 64 MiB into the slot's heap region. *)
  let base_off = 64 * 1024 * 1024 in
  let cursor =
    match Hashtbl.find_opt st.mmap_cursor slot with
    | Some c -> c
    | None -> heap.Layout.base + base_off
  in
  let rounded = page_round (Stdlib.max 1 len) in
  if cursor + rounded > Layout.region_end heap then Error Errno.Enomem
  else begin
    Address_space.map wfd.Wfd.aspace ~addr:cursor ~len:rounded ~perm:Page.rw
      ~pkey:(Wfd.function_key wfd slot);
    Hostos.Process.charge_rss wfd.Wfd.proc_table wfd.Wfd.pid rounded;
    Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Mmap);
    Hashtbl.replace st.mmap_cursor slot (cursor + rounded);
    Ok cursor
  end
