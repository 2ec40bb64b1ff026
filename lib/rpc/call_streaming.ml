module Program = Hope_proc.Program
open Program.Syntax

let guess_call ?(name = "worrywart") ~server ~request ~verify () =
  let* x = Program.aid_init () in
  let worrywart =
    let* resp = Rpc.call ~server request in
    let* ok = verify resp in
    if ok then Program.affirm x else Program.deny x
  in
  let* _pid = Program.spawn name worrywart in
  Program.guess x
