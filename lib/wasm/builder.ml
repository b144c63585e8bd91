let const n = Instr.Const (Int64.of_int n)
let add = Instr.Binop Instr.Add
let sub = Instr.Binop Instr.Sub
let mul = Instr.Binop Instr.Mul
let div = Instr.Binop Instr.Div_s
let rem = Instr.Binop Instr.Rem_s
let lt = Instr.Binop Instr.Lt_s
let gt = Instr.Binop Instr.Gt_s
let le = Instr.Binop Instr.Le_s
let eq = Instr.Binop Instr.Eq
let ne = Instr.Binop Instr.Ne
let local i = Instr.Local_get i
let set_local i = Instr.Local_set i
let tee i = Instr.Local_tee i

let while_loop ~cond ~body =
  Instr.Block [ Instr.Loop (cond @ [ Instr.Eqz; Instr.Br_if 1 ] @ body @ [ Instr.Br 0 ]) ]

let for_range ~local:i ~from ~until ~body =
  from
  @ [ set_local i;
      while_loop
        ~cond:([ local i ] @ until @ [ lt ])
        ~body:(body @ [ local i; const 1; add; set_local i ]) ]

let func ~name ?(params = 0) ?(locals = 0) body =
  { Wmodule.fname = name; params; locals; body }

(* sum(n) = 1 + 2 + ... + n, iteratively.  local 0 = n, 1 = i, 2 = acc. *)
let sum_to_n =
  let body =
    for_range ~local:1 ~from:[ const 1 ] ~until:[ local 0; const 1; add ]
      ~body:[ local 2; local 1; add; set_local 2 ]
    @ [ local 2 ]
  in
  Wmodule.create ~name:"sum_to_n"
    ~exports:[ ("sum", 0) ]
    [ func ~name:"sum" ~params:1 ~locals:2 body ]

(* Naive fib for call-heavy workloads. *)
let fib =
  let body =
    [
      local 0;
      const 2;
      lt;
      Instr.If
        ( [ local 0; Instr.Return ],
          [
            local 0;
            const 1;
            sub;
            Instr.Call 0;
            local 0;
            const 2;
            sub;
            Instr.Call 0;
            add;
          ] );
    ]
  in
  Wmodule.create ~name:"fib" ~exports:[ ("fib", 0) ]
    [ func ~name:"fib" ~params:1 body ]

(* fill(n, v): memory[0..n) <- v; checksum(n): sum of memory[0..n). *)
let memory_fill =
  let fill =
    for_range ~local:2 ~from:[ const 0 ] ~until:[ local 0 ]
      ~body:[ local 2; local 1; Instr.Store8 0 ]
    @ [ const 0 ]
  in
  let checksum =
    for_range ~local:1 ~from:[ const 0 ] ~until:[ local 0 ]
      ~body:[ local 2; local 1; Instr.Load8 0; add; set_local 2 ]
    @ [ local 2 ]
  in
  Wmodule.create ~name:"memory_fill" ~memory_pages:16
    ~exports:[ ("fill", 0); ("checksum", 1) ]
    [
      func ~name:"fill" ~params:2 ~locals:1 fill;
      func ~name:"checksum" ~params:1 ~locals:2 checksum;
    ]

(* Bubble sort of bytes in memory[0..n): local 0 = n, 1 = i, 2 = j,
   3/4 = scratch values. *)
let bubble_sort =
  let swap_if_greater =
    [
      (* a = mem[j], b = mem[j+1] *)
      local 2;
      Instr.Load8 0;
      set_local 3;
      local 2;
      Instr.Load8 1;
      set_local 4;
      local 3;
      local 4;
      gt;
      Instr.If
        ([ local 2; local 4; Instr.Store8 0; local 2; local 3; Instr.Store8 1 ], []);
    ]
  in
  let inner =
    for_range ~local:2 ~from:[ const 0 ]
      ~until:[ local 0; const 1; sub; local 1; sub ]
      ~body:swap_if_greater
  in
  let outer =
    for_range ~local:1 ~from:[ const 0 ] ~until:[ local 0; const 1; sub ] ~body:inner
  in
  Wmodule.create ~name:"bubble_sort" ~memory_pages:4 ~exports:[ ("sort", 0) ]
    [ func ~name:"sort" ~params:1 ~locals:4 (outer @ [ const 0 ]) ]
