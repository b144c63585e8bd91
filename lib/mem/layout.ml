type region = { base : int; size : int }

let contains r addr = addr >= r.base && addr < r.base + r.size
let region_end r = r.base + r.size

let mib n = n * 1024 * 1024

(* System partition: low addresses. *)
let visor_code = { base = 0x0001_0000; size = mib 4 }
let libos_code = { base = 0x0100_0000; size = mib 16 }
let libos_heap = { base = 0x0800_0000; size = mib 1920 }

(* User partition. *)
let trampoline = { base = 0x8000_0000; size = 4096 * 4 }

let slot_base = 0x9000_0000
let slot_size = mib 768
let function_slot_count = 64

(* Every slot's regions, built once: a spawn maps them per function
   instance, and a lookup must not allocate a record each time. *)
let slots =
  Array.init function_slot_count (fun i -> { base = slot_base + (i * slot_size); size = slot_size })

let codes = Array.map (fun s -> { base = s.base; size = mib 8 }) slots
let heaps = Array.map (fun s -> { base = s.base + mib 8; size = mib 752 }) slots
let stacks = Array.map (fun s -> { base = s.base + mib 760; size = mib 8 }) slots

let slot_region table i =
  if i < 0 || i >= function_slot_count then
    invalid_arg "Layout.function_slot: slot index out of range";
  Array.unsafe_get table i

let function_slot i = slot_region slots i
let function_code i = slot_region codes i
let function_heap i = slot_region heaps i
let function_stack i = slot_region stacks i

let slot_of_addr addr =
  if addr < slot_base then None
  else begin
    let i = (addr - slot_base) / slot_size in
    if i < function_slot_count then Some i else None
  end

let in_system_partition addr =
  contains visor_code addr || contains libos_code addr || contains libos_heap addr

let in_user_partition addr =
  contains trampoline addr || slot_of_addr addr <> None
