(* perfbench: run one workload of the repository benchmark and print
   its metrics as the last line of standard output.

     main.exe --workload serve-warm|serve-cold|workflows --seed N
              --seconds S --trace 0|1

   Exits 1 when any output was wrong, 2 on a usage error. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " serve-warm, serve-cold or workflows");
      ("--seed", Arg.Set_int seed, " seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let workload =
    match Perfbench.Bench.workload_of_name !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let cfg =
    {
      Perfbench.Bench.workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      domains = 1;
      scale = 1.0;
      min_reps = 3;
    }
  in
  let r = Perfbench.Bench.run cfg in
  Printf.eprintf "perfbench: %d untraced + %d traced repetitions, fingerprint %s\n%!"
    r.Perfbench.Bench.reps r.traced_reps r.fingerprint;
  Printf.eprintf "perfbench: host us per unit by repetition, at reference speed/as measured: %s\n%!"
    (String.concat " " (List.map (fun (s, m) -> Printf.sprintf "%.2f/%.2f" s m) r.samples));
  Printf.eprintf "perfbench: set-up times in ms: %s\n%!"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.2f" (s *. 1e3)) r.setup_samples));
  print_endline (Perfbench.Bench.to_json ~trace:cfg.trace r);
  if not r.correct then exit 1
