(* Tests for the instruction scanner and ERIM-style rewriter
   (threat-model admission, §6 of the paper). *)

open Isa

let image insts = Image.create ~name:"test" ~toolchain:Image.Rust_as_std insts

let clean_insts = [ Inst.Mov_reg; Inst.Add; Inst.Load; Inst.Store; Inst.Ret ]

let test_encodings () =
  Alcotest.(check string) "wrpkru bytes" "\x0f\x01\xef" (Inst.encode Inst.Wrpkru);
  Alcotest.(check string) "syscall bytes" "\x0f\x05" (Inst.encode Inst.Syscall);
  Alcotest.(check string) "sysenter bytes" "\x0f\x34" (Inst.encode Inst.Sysenter);
  Alcotest.(check string) "int bytes" "\xcd\x80" (Inst.encode (Inst.Int 0x80));
  Alcotest.(check string) "nop" "\x90" (Inst.encode Inst.Nop);
  Alcotest.(check int) "mov imm length" 5 (Inst.encoded_length (Inst.Mov_imm 7l))

let test_blacklist_classification () =
  Alcotest.(check bool) "wrpkru blacklisted" true (Inst.is_blacklisted Inst.Wrpkru);
  Alcotest.(check bool) "int blacklisted" true (Inst.is_blacklisted (Inst.Int 3));
  Alcotest.(check bool) "mov allowed" false (Inst.is_blacklisted Inst.Mov_reg)

let test_image_boundaries () =
  let img = image [ Inst.Nop; Inst.Mov_imm 1l; Inst.Ret ] in
  Alcotest.(check (list int)) "boundaries" [ 0; 1; 6 ] (Image.boundaries img);
  Alcotest.(check int) "code size" 7 (Image.code_size img);
  Alcotest.(check int) "inst count" 3 (Image.inst_count img)

let test_scan_clean () =
  Alcotest.(check int) "clean image: no hits" 0
    (List.length (Scanner.scan (image clean_insts)));
  match Scanner.verdict (image clean_insts) with
  | Scanner.Clean -> ()
  | _ -> Alcotest.fail "expected Clean"

let test_scan_intentional () =
  let img = image [ Inst.Mov_reg; Inst.Syscall; Inst.Ret ] in
  (match Scanner.scan img with
  | [ occ ] ->
      Alcotest.(check bool) "aligned" true occ.Scanner.aligned;
      Alcotest.(check int) "offset" 2 occ.Scanner.offset
  | occs -> Alcotest.fail (Printf.sprintf "expected 1 occurrence, got %d" (List.length occs)));
  match Scanner.verdict img with
  | Scanner.Rejected [ _ ] -> ()
  | _ -> Alcotest.fail "expected Rejected"

(* An immediate whose byte pattern embeds a forbidden opcode: mov with
   imm32 = ...0f 05... unaligned syscall. *)
let sneaky_imm =
  (* LE bytes of the immediate: ef 01 0f b8? We want "0f 05" inside the
     image stream.  mov_imm encodes as b8 xx xx xx xx; choose the
     immediate so bytes 1-2 are 0f 05: 0x??_??_05_0f. *)
  Inst.Mov_imm 0x11_22_05_0Fl

let test_scan_unaligned () =
  let img = image [ sneaky_imm; Inst.Ret ] in
  let occs = Scanner.scan img in
  Alcotest.(check bool) "found embedded pattern" true
    (List.exists (fun (o : Scanner.occurrence) -> o.Scanner.opcode = Scanner.Op_syscall) occs);
  Alcotest.(check bool) "unaligned" true
    (List.for_all (fun (o : Scanner.occurrence) -> not o.Scanner.aligned) occs);
  match Scanner.verdict img with
  | Scanner.Rewritable _ -> ()
  | v -> Alcotest.fail (Format.asprintf "expected Rewritable, got %a" Scanner.pp_verdict v)

let test_rewrite_unaligned () =
  let img = image [ sneaky_imm; Inst.Ret; Inst.Mov_reg ] in
  let rewritten = Rewriter.rewrite img in
  (match Scanner.verdict rewritten with
  | Scanner.Clean -> ()
  | v -> Alcotest.fail (Format.asprintf "rewrite left %a" Scanner.pp_verdict v));
  (* Rewriting is idempotent on clean images. *)
  let again = Rewriter.rewrite rewritten in
  Alcotest.(check int) "idempotent" (Image.inst_count rewritten) (Image.inst_count again)

let test_rewrite_rejects_intentional () =
  let img = image [ Inst.Wrpkru; Inst.Ret ] in
  match Rewriter.rewrite img with
  | _ -> Alcotest.fail "must not rewrite intentional wrpkru"
  | exception Rewriter.Unrewritable _ -> ()

let test_admit_pipeline () =
  (match Rewriter.admit (image clean_insts) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Rewriter.admit (image [ Inst.Sysenter ]) with
  | Ok _ -> Alcotest.fail "sysenter must be rejected"
  | Error _ -> ());
  match Rewriter.admit (image [ sneaky_imm; Inst.Ret ]) with
  | Ok img -> begin
      match Scanner.verdict img with
      | Scanner.Clean -> ()
      | _ -> Alcotest.fail "admitted image must be clean"
    end
  | Error e -> Alcotest.fail e

(* qcheck: for random non-blacklisted instruction streams, admit always
   succeeds and produces a clean image. *)
let benign_inst_gen =
  QCheck.Gen.(
    oneof
      [
        return Inst.Nop;
        map (fun v -> Inst.Mov_imm (Int32.of_int v)) (int_bound 0xFFFFFF);
        return Inst.Mov_reg;
        return Inst.Add;
        return Inst.Load;
        return Inst.Store;
        map (fun v -> Inst.Jmp v) (int_bound 127);
        map (fun s -> Inst.Call ("f" ^ string_of_int s)) (int_bound 9);
        return Inst.Ret;
      ])

let admit_property =
  QCheck.Test.make ~name:"rewriter: benign streams always admit clean" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) benign_inst_gen))
    (fun insts ->
      match Rewriter.admit (image insts) with
      | Ok admitted -> Scanner.verdict admitted = Scanner.Clean
      | Error _ -> false)

(* Dangerous immediates specifically: embed each forbidden pattern
   into mov immediates and check the rewriter clears them. *)
let embedded_patterns =
  [ 0x0005_0F00l; 0x0001_0F00l (* prefix of wrpkru *); 0x0034_0F00l; 0x00_00_CD_00l ]

let test_rewrite_embedded_each () =
  List.iter
    (fun imm ->
      let img = image [ Inst.Mov_imm imm; Inst.Mov_imm imm; Inst.Ret ] in
      match Rewriter.admit img with
      | Ok admitted ->
          if Scanner.verdict admitted <> Scanner.Clean then
            Alcotest.fail (Printf.sprintf "imm %lx not cleaned" imm)
      | Error e -> Alcotest.fail e)
    embedded_patterns

let suite =
  [
    Alcotest.test_case "opcode encodings" `Quick test_encodings;
    Alcotest.test_case "blacklist classification" `Quick test_blacklist_classification;
    Alcotest.test_case "image boundaries" `Quick test_image_boundaries;
    Alcotest.test_case "scan clean image" `Quick test_scan_clean;
    Alcotest.test_case "scan intentional syscall" `Quick test_scan_intentional;
    Alcotest.test_case "scan unaligned pattern" `Quick test_scan_unaligned;
    Alcotest.test_case "rewrite unaligned" `Quick test_rewrite_unaligned;
    Alcotest.test_case "rewrite rejects intentional" `Quick test_rewrite_rejects_intentional;
    Alcotest.test_case "admission pipeline" `Quick test_admit_pipeline;
    Alcotest.test_case "rewrite embedded patterns" `Quick test_rewrite_embedded_each;
    QCheck_alcotest.to_alcotest admit_property;
  ]
