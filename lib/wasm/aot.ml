exception Trap of string

type instance = {
  mutable funcs : (int64 array -> int64) array;
      (** Compiled local functions by slot. *)
  imports : string array;
  n_imports : int;
  mutable import_fns : host_fn array;
      (** Host bindings pre-resolved at instantiate time. *)
  mutable memory : Bytes.t;
  globals : Bytes.t;  (** One unboxed 8-byte slot per global. *)
  hosts : (string, host_fn) Hashtbl.t;
  mutable executed : int;
  mutable fuel : int;
  exports : (string * int) list;
}

and host_fn = instance -> int64 array -> int64

type control = Fall | Branch of int | Ret

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

(* Operand stack, locals and globals keep their int64s unboxed in
   [Bytes], 8 bytes per slot in host byte order: pushing, popping or
   storing a value never allocates. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* A running function: its locals and operand stack, whose [top] is the
   next free slot. *)
type frame = { locals : Bytes.t; mutable stack : Bytes.t; mutable top : int }

(* A compiled instruction: run it on the instance and the frame, to a
   control outcome. *)
type code = instance -> frame -> control

type compiled = {
  m : Wmodule.t;
  bodies : (Wmodule.func * code array) list;
  instr_count : int;
}

let[@inline] pop fr =
  if fr.top = 0 then trap "value stack underflow";
  fr.top <- fr.top - 1;
  get64u fr.stack (8 * fr.top)

let grow fr =
  let bigger = Bytes.create (2 * Bytes.length fr.stack) in
  Bytes.blit fr.stack 0 bigger 0 (Bytes.length fr.stack);
  fr.stack <- bigger

let[@inline] push fr v =
  if 8 * fr.top = Bytes.length fr.stack then grow fr;
  set64u fr.stack (8 * fr.top) v;
  fr.top <- fr.top + 1

let[@inline] tick inst =
  inst.executed <- inst.executed + 1;
  inst.fuel <- inst.fuel - 1;
  if inst.fuel < 0 then trap "out of fuel"

let check_mem inst addr len =
  if addr < 0 || len < 0 || addr + len > Bytes.length inst.memory then
    trap "memory access out of bounds: %d (+%d) of %d" addr len (Bytes.length inst.memory)

(* Run a compiled sequence from instruction [i] to its first non-[Fall]
   outcome. *)
let rec run_seq seq i inst fr =
  if i = Array.length seq then Fall
  else
    match (Array.unsafe_get seq i) inst fr with
    | Fall -> run_seq seq (i + 1) inst fr
    | ctl -> ctl

(* Leaving a label: a branch to it falls through, a deeper one becomes
   the preallocated branch to the next label out. *)
let[@inline] leave outcomes = function
  | Fall | Branch 0 -> Fall
  | Branch n -> outcomes.(n - 1)
  | Ret -> Ret

let rec loop outcomes body inst fr =
  match run_seq body 0 inst fr with
  | Branch 0 -> loop outcomes body inst fr
  | ctl -> leave outcomes ctl

let[@inline] of_bool v = if v then 1L else 0L

(* The first half of a binary operator: retire it and pop [b]; the
   closure then pops [a] and pushes the result. *)
let[@inline] pop_b inst fr =
  tick inst;
  pop fr

(* One closure per operator, with the operation inlined into it: a
   shared closure calling an [int64 -> int64 -> int64] would box both
   operands and the result. *)
let compile_binop op : code =
  let open Int64 in
  match op with
  | Instr.Add -> fun inst fr -> let b = pop_b inst fr in push fr (add (pop fr) b); Fall
  | Instr.Sub -> fun inst fr -> let b = pop_b inst fr in push fr (sub (pop fr) b); Fall
  | Instr.Mul -> fun inst fr -> let b = pop_b inst fr in push fr (mul (pop fr) b); Fall
  | Instr.Div_s ->
      fun inst fr ->
        let b = pop_b inst fr in
        let a = pop fr in
        if b = 0L then trap "integer divide by zero";
        push fr (div a b);
        Fall
  | Instr.Rem_s ->
      fun inst fr ->
        let b = pop_b inst fr in
        let a = pop fr in
        if b = 0L then trap "integer divide by zero";
        push fr (rem a b);
        Fall
  | Instr.And -> fun inst fr -> let b = pop_b inst fr in push fr (logand (pop fr) b); Fall
  | Instr.Or -> fun inst fr -> let b = pop_b inst fr in push fr (logor (pop fr) b); Fall
  | Instr.Xor -> fun inst fr -> let b = pop_b inst fr in push fr (logxor (pop fr) b); Fall
  | Instr.Shl ->
      fun inst fr ->
        let b = pop_b inst fr in
        push fr (shift_left (pop fr) (to_int (logand b 63L)));
        Fall
  | Instr.Shr_s ->
      fun inst fr ->
        let b = pop_b inst fr in
        push fr (shift_right (pop fr) (to_int (logand b 63L)));
        Fall
  | Instr.Eq -> fun inst fr -> let b = pop_b inst fr in push fr (of_bool (equal (pop fr) b)); Fall
  | Instr.Ne ->
      fun inst fr -> let b = pop_b inst fr in push fr (of_bool (not (equal (pop fr) b))); Fall
  | Instr.Lt_s -> fun inst fr -> let b = pop_b inst fr in push fr (of_bool (pop fr < b)); Fall
  | Instr.Gt_s -> fun inst fr -> let b = pop_b inst fr in push fr (of_bool (pop fr > b)); Fall
  | Instr.Le_s -> fun inst fr -> let b = pop_b inst fr in push fr (of_bool (pop fr <= b)); Fall
  | Instr.Ge_s -> fun inst fr -> let b = pop_b inst fr in push fr (of_bool (pop fr >= b)); Fall

let rec call_slot inst idx args =
  if idx < inst.n_imports then (Array.unsafe_get inst.import_fns idx) inst args
  else inst.funcs.(idx - inst.n_imports) args

(* Compile an instruction sequence into an array of compiled
   instructions (no list walk at run time).  [outcomes.(n)] is the one
   [Branch n] value every branch to depth [n] returns. *)
and compile_seq callee_arity outcomes seq : code array =
  Array.of_list (List.map (compile_instr callee_arity outcomes) seq)

and compile_instr callee_arity outcomes instr : code =
  match instr with
  | Instr.Nop ->
      fun inst _ ->
        tick inst;
        Fall
  | Instr.Unreachable ->
      fun inst _ ->
        tick inst;
        trap "unreachable executed"
  | Instr.Const v ->
      fun inst fr ->
        tick inst;
        push fr v;
        Fall
  | Instr.Binop op -> compile_binop op
  | Instr.Eqz ->
      fun inst fr ->
        tick inst;
        push fr (of_bool (Int64.equal (pop fr) 0L));
        Fall
  | Instr.Drop ->
      fun inst fr ->
        tick inst;
        ignore (pop fr);
        Fall
  | Instr.Select ->
      fun inst fr ->
        tick inst;
        let cond = pop fr in
        let b = pop fr in
        let a = pop fr in
        push fr (if Int64.equal cond 0L then b else a);
        Fall
  | Instr.Local_get i ->
      let off = 8 * i in
      fun inst fr ->
        tick inst;
        push fr (get64 fr.locals off);
        Fall
  | Instr.Local_set i ->
      let off = 8 * i in
      fun inst fr ->
        tick inst;
        set64 fr.locals off (pop fr);
        Fall
  | Instr.Local_tee i ->
      let off = 8 * i in
      fun inst fr ->
        tick inst;
        if fr.top = 0 then trap "value stack underflow";
        set64 fr.locals off (get64u fr.stack (8 * (fr.top - 1)));
        Fall
  | Instr.Global_get i ->
      let off = 8 * i in
      fun inst fr ->
        tick inst;
        push fr (get64 inst.globals off);
        Fall
  | Instr.Global_set i ->
      let off = 8 * i in
      fun inst fr ->
        tick inst;
        set64 inst.globals off (pop fr);
        Fall
  | Instr.Load8 off ->
      fun inst fr ->
        tick inst;
        let addr = Int64.to_int (pop fr) + off in
        check_mem inst addr 1;
        push fr (Int64.of_int (Char.code (Bytes.get inst.memory addr)));
        Fall
  | Instr.Load64 off ->
      fun inst fr ->
        tick inst;
        let addr = Int64.to_int (pop fr) + off in
        check_mem inst addr 8;
        push fr (Bytes.get_int64_le inst.memory addr);
        Fall
  | Instr.Store8 off ->
      fun inst fr ->
        tick inst;
        let v = pop fr in
        let addr = Int64.to_int (pop fr) + off in
        check_mem inst addr 1;
        Bytes.set inst.memory addr (Char.chr (Int64.to_int (Int64.logand v 0xFFL)));
        Fall
  | Instr.Store64 off ->
      fun inst fr ->
        tick inst;
        let v = pop fr in
        let addr = Int64.to_int (pop fr) + off in
        check_mem inst addr 8;
        Bytes.set_int64_le inst.memory addr v;
        Fall
  | Instr.Memory_size ->
      fun inst fr ->
        tick inst;
        push fr (Int64.of_int (Bytes.length inst.memory / Wmodule.page_size));
        Fall
  | Instr.Memory_grow ->
      fun inst fr ->
        tick inst;
        let delta = Int64.to_int (pop fr) in
        let old_pages = Bytes.length inst.memory / Wmodule.page_size in
        if delta < 0 || old_pages + delta > 4096 then push fr (-1L)
        else begin
          let bigger = Bytes.make ((old_pages + delta) * Wmodule.page_size) '\000' in
          Bytes.blit inst.memory 0 bigger 0 (Bytes.length inst.memory);
          inst.memory <- bigger;
          push fr (Int64.of_int old_pages)
        end;
        Fall
  | Instr.Block body ->
      let body = compile_seq callee_arity outcomes body in
      fun inst fr ->
        tick inst;
        leave outcomes (run_seq body 0 inst fr)
  | Instr.Loop body ->
      let body = compile_seq callee_arity outcomes body in
      fun inst fr ->
        tick inst;
        loop outcomes body inst fr
  | Instr.If (then_, else_) ->
      let cthen = compile_seq callee_arity outcomes then_ in
      let celse = compile_seq callee_arity outcomes else_ in
      fun inst fr ->
        tick inst;
        let body = if Int64.equal (pop fr) 0L then celse else cthen in
        leave outcomes (run_seq body 0 inst fr)
  | Instr.Br n ->
      let out = outcomes.(n) in
      fun inst _ ->
        tick inst;
        out
  | Instr.Br_if n ->
      let out = outcomes.(n) in
      fun inst fr ->
        tick inst;
        if Int64.equal (pop fr) 0L then Fall else out
  | Instr.Return ->
      fun inst _ ->
        tick inst;
        Ret
  | Instr.Call idx ->
      let arity = callee_arity idx in
      fun inst fr ->
        tick inst;
        let args = Array.make arity 0L in
        for i = arity - 1 downto 0 do
          args.(i) <- pop fr
        done;
        push fr (call_slot inst idx args);
        Fall

(* Deepest label nesting in a body; validation keeps every branch depth
   below it. *)
let rec label_depth body =
  List.fold_left
    (fun d instr ->
      match instr with
      | Instr.Block b | Instr.Loop b -> Stdlib.max d (1 + label_depth b)
      | Instr.If (a, b) -> Stdlib.max d (1 + Stdlib.max (label_depth a) (label_depth b))
      | _ -> d)
    0 body

let compile m =
  Validate.validate_exn m;
  let n_imports = List.length m.Wmodule.imports in
  (* Pre-resolve function arities into an array: compile-time closures
     never chase the module's function list again. *)
  let funcs = Array.of_list m.Wmodule.funcs in
  let callee_arity idx =
    if idx < n_imports then 3 (* host-call convention, see Interp *)
    else begin
      let slot = idx - n_imports in
      if slot >= 0 && slot < Array.length funcs then funcs.(slot).Wmodule.params else 0
    end
  in
  let depth =
    List.fold_left (fun d (f : Wmodule.func) -> Stdlib.max d (label_depth f.body)) 0 m.Wmodule.funcs
  in
  let outcomes = Array.init depth (fun n -> Branch n) in
  let bodies =
    List.map
      (fun (f : Wmodule.func) -> (f, compile_seq callee_arity outcomes f.Wmodule.body))
      m.Wmodule.funcs
  in
  { m; bodies; instr_count = Wmodule.code_size m }

let compiled_instr_count c = c.instr_count

let to_image c =
  (* AOT lowering never emits blacklisted opcodes: every instruction
     becomes safe ALU/memory ops, and host access becomes calls into the
     embedder's entry points. *)
  let imports = Array.of_list c.m.Wmodule.imports in
  let lower (f : Wmodule.func) =
    let rec go = function
      | [] -> []
      | Instr.Call idx :: rest when Wmodule.is_import c.m idx ->
          Isa.Inst.Call imports.(idx) :: go rest
      | Instr.Call _ :: rest -> Isa.Inst.Call "local" :: go rest
      | Instr.Const v :: rest ->
          Isa.Inst.Mov_imm (Int64.to_int32 v) :: go rest
      | (Instr.Load8 _ | Instr.Load64 _) :: rest -> Isa.Inst.Load :: go rest
      | (Instr.Store8 _ | Instr.Store64 _) :: rest -> Isa.Inst.Store :: go rest
      | (Instr.Block b | Instr.Loop b) :: rest -> go b @ go rest
      | Instr.If (a, b) :: rest -> go a @ go b @ go rest
      | Instr.Return :: rest -> Isa.Inst.Ret :: go rest
      | (Instr.Br _ | Instr.Br_if _) :: rest -> Isa.Inst.Jmp 0 :: go rest
      | _ :: rest -> Isa.Inst.Add :: go rest
    in
    go f.Wmodule.body @ [ Isa.Inst.Ret ]
  in
  let insts = List.concat_map lower c.m.Wmodule.funcs in
  Isa.Image.create ~name:(c.m.Wmodule.name ^ ".aot") ~toolchain:Isa.Image.Wasm_aot insts

let instantiate ?(hosts = []) c =
  let table = Hashtbl.create 8 in
  List.iter (fun (name, fn) -> Hashtbl.replace table name fn) hosts;
  List.iter
    (fun name ->
      if not (Hashtbl.mem table name) then
        invalid_arg (Printf.sprintf "Wasm.Aot: missing host import %s" name))
    c.m.Wmodule.imports;
  let memory = Bytes.make (c.m.Wmodule.memory_pages * Wmodule.page_size) '\000' in
  List.iter
    (fun (off, data) -> Bytes.blit_string data 0 memory off (String.length data))
    c.m.Wmodule.data;
  let imports = Array.of_list c.m.Wmodule.imports in
  let globals = Bytes.create (8 * List.length c.m.Wmodule.globals) in
  List.iteri (fun i v -> set64 globals (8 * i) v) c.m.Wmodule.globals;
  let inst =
    {
      funcs = [||];
      imports;
      n_imports = Array.length imports;
      import_fns = Array.map (fun name -> Hashtbl.find table name) imports;
      memory;
      globals;
      hosts = table;
      executed = 0;
      fuel = max_int;
      exports = c.m.Wmodule.exports;
    }
  in
  let make_callable ((f : Wmodule.func), body) args =
    if Array.length args <> f.Wmodule.params then
      trap "%s expects %d args, got %d" f.Wmodule.fname f.Wmodule.params
        (Array.length args);
    let locals = Bytes.make (8 * (f.Wmodule.params + f.Wmodule.locals)) '\000' in
    for i = 0 to Array.length args - 1 do
      set64 locals (8 * i) args.(i)
    done;
    let fr = { locals; stack = Bytes.create (8 * 32); top = 0 } in
    let _ = run_seq body 0 inst fr in
    if fr.top = 0 then 0L else get64u fr.stack (8 * (fr.top - 1))
  in
  inst.funcs <- Array.of_list (List.map (fun b -> make_callable b) c.bodies);
  inst

let call ?(fuel = 200_000_000) inst name args =
  match List.assoc_opt name inst.exports with
  | None -> invalid_arg (Printf.sprintf "Wasm.Aot: no export %s" name)
  | Some idx ->
      inst.fuel <- fuel;
      call_slot inst idx args

let executed inst = inst.executed

let read_memory inst addr len =
  check_mem inst addr len;
  Bytes.sub inst.memory addr len

let write_memory inst addr data =
  check_mem inst addr (Bytes.length data);
  Bytes.blit data 0 inst.memory addr (Bytes.length data)
