let size = 4096
let shift = 12

type perm = { read : bool; write : bool; exec : bool }

let rw = { read = true; write = true; exec = false }
let ro = { read = true; write = false; exec = false }
let rx = { read = true; write = false; exec = true }

(* Backing storage is demand-zero: a freshly mapped page costs nothing
   until first touched, like anonymous mmap on a host kernel.  This
   keeps large mostly-untouched mappings (WFD system partitions,
   function heaps) cheap to create in host time and memory. *)
type t = {
  mutable store : Bytes.t option;  (** Materialised on first access. *)
  mutable perm : perm;
  mutable pkey : Prot.key;
  mutable populated : bool;
}

let create ?(perm = rw) ?(pkey = Prot.default_key) () =
  { store = None; perm; pkey; populated = false }

let data t =
  match t.store with
  | Some b -> b
  | None ->
      let b = Bytes.make size '\000' in
      t.store <- Some b;
      b

let vpn_of_addr addr = addr lsr shift
let offset_of_addr addr = addr land (size - 1)
let addr_of_vpn vpn = vpn lsl shift

let align_up addr = (addr + size - 1) land lnot (size - 1)
let align_down addr = addr land lnot (size - 1)

let count_for len = if len <= 0 then 0 else (len + size - 1) / size
