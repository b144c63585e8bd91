type toolchain = Rust_as_std | Rust_plain_std | Wasm_aot | Native_c

type t = {
  name : string;
  toolchain : toolchain;
  insts : Inst.t list;
  mutable hash : string option;
}

let create ~name ~toolchain insts = { name; toolchain; insts; hash = None }

let code t = String.concat "" (List.map Inst.encode t.insts)

let code_size t = String.length (code t)

let inst_count t = List.length t.insts

let boundaries t =
  let rec go off = function
    | [] -> []
    | i :: rest -> off :: go (off + Inst.encoded_length i) rest
  in
  go 0 t.insts

let toolchain_tag = function
  | Rust_as_std -> "rust+as-std"
  | Rust_plain_std -> "rust+std"
  | Wasm_aot -> "wasm-aot"
  | Native_c -> "native-c"

(* The instruction stream is immutable after [create], so the digest is
   computed once and cached on the image.  A racing duplicate
   computation writes the identical string, so the unsynchronised
   cache is benign across domains. *)
let content_hash t =
  match t.hash with
  | Some h -> h
  | None ->
      let h = Digest.to_hex (Digest.string (toolchain_tag t.toolchain ^ "\x00" ^ code t)) in
      t.hash <- Some h;
      h
