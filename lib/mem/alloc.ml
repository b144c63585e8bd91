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

let injected_failure t =
  match t.fault with
  | Some plan -> Sim.Fault.check plan ~site:Sim.Fault.site_mem_alloc
  | None -> false

(* The first hole that can serve an aligned block of [size], or [None]
   when none can. *)
let rec first_fit ~size ~align = function
  | [] -> None
  | h :: rest ->
      if align_up h.addr align - h.addr + size <= h.size then Some h
      else first_fit ~size ~align rest

(* [holes] with [hole] replaced by the non-empty ones of its remainders
   [before] and [after] (a record only for a non-empty remainder). *)
let rec replace_hole (hole : hole) ~padding ~size = function
  | [] -> []
  | (h : hole) :: rest when h.addr = hole.addr ->
      let tail = hole.size - padding - size in
      let rest =
        if tail > 0 then { addr = hole.addr + padding + size; size = tail } :: rest else rest
      in
      if padding > 0 then { addr = hole.addr; size = padding } :: rest else rest
  | h :: rest -> h :: replace_hole hole ~padding ~size rest

let alloc t ~size ~align =
  if size <= 0 then invalid_arg "Alloc.alloc: size must be positive";
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Alloc.alloc: align must be a positive power of two";
  if injected_failure t then None
  else
    match first_fit ~size ~align t.holes with
    | None -> None
    | Some hole ->
        let padding = align_up hole.addr align - hole.addr in
        let addr = hole.addr + padding in
        t.holes <- replace_hole hole ~padding ~size t.holes;
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
  match Hashtbl.find t.live addr with
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Alloc.free: 0x%x is not a live block" addr)
  | size ->
      Hashtbl.remove t.live addr;
      t.holes <- insert_coalesced t.holes { addr; size }

let allocated_bytes t = Hashtbl.fold (fun _ size acc -> acc + size) t.live 0

let free_bytes t = List.fold_left (fun acc (h : hole) -> acc + h.size) 0 t.holes

let hole_count t = List.length t.holes

let live_blocks t =
  Hashtbl.fold (fun addr size acc -> (addr, size) :: acc) t.live []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  Hashtbl.reset t.live;
  t.holes <- [ { addr = t.base; size = t.size } ]
