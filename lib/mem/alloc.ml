type hole = { addr : int; size : int }

type t = {
  base : int;
  size : int;
  mutable holes : hole list;  (** Address-ordered, non-adjacent. *)
  live : (int, int) Hashtbl.t;  (** addr -> size *)
  fault : Sim.Fault.t option;
}

let create ?fault ~base ~size () =
  if size <= 0 then invalid_arg "Alloc.create: size must be positive";
  { base; size; holes = [ { addr = base; size } ]; live = Hashtbl.create 64; fault }

let align_up addr align = (addr + align - 1) land lnot (align - 1)

(* In-hole placement: returns (padding, usable) if the hole can serve an
   aligned block of [size]. *)
let fit hole ~size ~align =
  let aligned = align_up hole.addr align in
  let padding = aligned - hole.addr in
  if padding + size <= hole.size then Some padding else None

let injected_failure t =
  match t.fault with
  | Some plan -> Sim.Fault.check plan ~site:Sim.Fault.site_mem_alloc
  | None -> false

let alloc t ~size ~align =
  if size <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Alloc.alloc: align must be a positive power of two";
  if injected_failure t then None
  else
  let chosen =
    List.find_map
      (fun h -> match fit h ~size ~align with Some pad -> Some (h, pad) | None -> None)
      t.holes
  in
  match chosen with
  | None -> None
  | Some (hole, padding) ->
      let addr = hole.addr + padding in
      (* Replace the hole with up to two remainders: the padding before
         the block and the tail after it. *)
      let before = { addr = hole.addr; size = padding } in
      let after =
        { addr = addr + size; size = hole.size - padding - size }
      in
      let keep (h : hole) = h.size > 0 in
      let rec replace = function
        | [] -> []
        | h :: rest when h.addr = hole.addr ->
            List.filter keep [ before; after ] @ rest
        | h :: rest -> h :: replace rest
      in
      t.holes <- replace t.holes;
      Hashtbl.replace t.live addr size;
      Some addr

let insert_coalesced holes hole =
  (* Keep address order; merge with adjacent holes. *)
  let rec go = function
    | [] -> [ hole ]
    | h :: rest when hole.addr + hole.size < h.addr -> hole :: h :: rest
    | h :: rest when hole.addr + hole.size = h.addr ->
        { addr = hole.addr; size = hole.size + h.size } :: rest
    | h :: rest when h.addr + h.size = hole.addr ->
        go_merge { addr = h.addr; size = h.size + hole.size } rest
    | h :: rest -> h :: go rest
  and go_merge merged = function
    | h :: rest when merged.addr + merged.size = h.addr ->
        { addr = merged.addr; size = merged.size + h.size } :: rest
    | rest -> merged :: rest
  in
  go holes

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg (Printf.sprintf "Alloc.free: 0x%x is not a live block" addr)
  | Some size ->
      Hashtbl.remove t.live addr;
      t.holes <- insert_coalesced t.holes { addr; size }

let allocated_bytes t = Hashtbl.fold (fun _ size acc -> acc + size) t.live 0

let free_bytes t = List.fold_left (fun acc (h : hole) -> acc + h.size) 0 t.holes

let largest_hole t = List.fold_left (fun acc (h : hole) -> Stdlib.max acc h.size) 0 t.holes

let hole_count t = List.length t.holes

let live_blocks t =
  Hashtbl.fold (fun addr size acc -> (addr, size) :: acc) t.live []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let block_size t addr = Hashtbl.find_opt t.live addr

let reset t =
  Hashtbl.reset t.live;
  t.holes <- [ { addr = t.base; size = t.size } ]
