(** A simulated function binary image: named instruction stream plus
    metadata about which language/toolchain produced it. *)

type toolchain = Rust_as_std | Rust_plain_std | Wasm_aot | Native_c

type t = {
  name : string;
  toolchain : toolchain;
  insts : Inst.t list;
  mutable hash : string option;
      (** Memoized {!content_hash}; [insts] never changes after
          {!create}, so the digest is computed at most once per image.
          Use {!content_hash}, never this field. *)
}

val create : name:string -> toolchain:toolchain -> Inst.t list -> t

val code : t -> string
(** Concatenated byte encoding of the instruction stream. *)

val code_size : t -> int
val inst_count : t -> int

val boundaries : t -> int list
(** Byte offsets at which each instruction starts (ascending, starting
    with 0). *)

val content_hash : t -> string
(** Digest of the encoded instruction stream plus toolchain tag — the
    admission-cache key.  Two images with identical code and toolchain
    hash identically regardless of their names.  Memoized: repeated
    calls on the same image are O(1) after the first. *)
