type opcode = Op_wrpkru | Op_syscall | Op_sysenter | Op_int

type occurrence = { opcode : opcode; offset : int; aligned : bool }

(* Forbidden opcode patterns; [int] matches any cd xx pair. *)
let patterns =
  [ (Op_wrpkru, [ 0x0F; 0x01; 0xEF ]);
    (Op_syscall, [ 0x0F; 0x05 ]);
    (Op_sysenter, [ 0x0F; 0x34 ]);
    (Op_int, [ 0xCD ]) ]

let matches code off pat =
  let n = List.length pat in
  let fits =
    match pat with
    | [ 0xCD ] -> off + 2 <= String.length code (* int needs its imm8 *)
    | _ -> off + n <= String.length code
  in
  fits
  && List.for_all2
       (fun i b -> Char.code code.[off + i] = b)
       (List.init n Fun.id)
       pat

let scan_code code ~boundaries =
  let boundary_set = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace boundary_set b ()) boundaries;
  let occs = ref [] in
  for off = 0 to String.length code - 1 do
    List.iter
      (fun (op, pat) ->
        if matches code off pat then
          occs := { opcode = op; offset = off; aligned = Hashtbl.mem boundary_set off } :: !occs)
      patterns
  done;
  List.sort (fun a b -> compare a.offset b.offset) !occs

let scan image = scan_code (Image.code image) ~boundaries:(Image.boundaries image)

type verdict =
  | Clean
  | Rewritable of occurrence list
  | Rejected of occurrence list

let verdict image =
  let occs = scan image in
  let intentional, accidental = List.partition (fun o -> o.aligned) occs in
  if intentional <> [] then Rejected intentional
  else if accidental <> [] then Rewritable accidental
  else Clean

let pp_verdict fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Rewritable occs ->
      Format.fprintf fmt "rewritable (%d unaligned occurrences)" (List.length occs)
  | Rejected occs ->
      Format.fprintf fmt "rejected (%d forbidden instructions)" (List.length occs)
