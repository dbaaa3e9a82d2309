(* What the kernel says about a process, read from /proc so that the
   served program is measured without changing it: CPU time, context
   switches summed over its threads, thread count, resident memory. *)

type sample = { cpu_s : float; ctx_switches : int; threads : int; rss_kb : int }

(* Pins the calling thread to the k-th CPU the process may use (modulo
   their number), or with k < 0 frees it again; children inherit the
   pin.  Pinned, every run has the same placement: the scheduler cannot
   put the generator and countnetd, or the two domains, on one CPU for
   part of a run. *)
external pin_cpu : int -> bool = "cnbench_pin_cpu"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* /proc reports utime/stime in USER_HZ ticks, fixed at 100 by the
   Linux ABI. *)
let ticks_per_s = 100.

let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line, 12th and 13th after it. *)
  let i = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. ticks_per_s

(* The benchmark's own CPU time, from getrusage: finer than /proc ticks. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let status_field text key =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        let k = String.length prefix in
        let v = String.trim (String.sub line k (String.length line - k)) in
        int_of_string_opt (List.hd (String.split_on_char ' ' v))
      else None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0

(* [sample None] is the benchmark's own process. *)
let sample pid =
  let cpu = match pid with None -> self_cpu_s () | Some p -> cpu_s p in
  let pid = match pid with None -> "self" | Some p -> string_of_int p in
  let tasks = Sys.readdir (Printf.sprintf "/proc/%s/task" pid) in
  let ctx =
    Array.fold_left
      (fun acc tid ->
        match read_file (Printf.sprintf "/proc/%s/task/%s/status" pid tid) with
        | text ->
            acc + status_field text "voluntary_ctxt_switches"
            + status_field text "nonvoluntary_ctxt_switches"
        | exception Sys_error _ -> acc (* the thread exited meanwhile *))
      0 tasks
  in
  {
    cpu_s = cpu;
    ctx_switches = ctx;
    threads = Array.length tasks;
    rss_kb = status_field (read_file (Printf.sprintf "/proc/%s/status" pid)) "VmRSS";
  }

(* CPU seconds and context switches spent between two samples; threads
   and memory as of the later one. *)
let delta a b =
  {
    cpu_s = b.cpu_s -. a.cpu_s;
    ctx_switches = b.ctx_switches - a.ctx_switches;
    threads = b.threads;
    rss_kb = b.rss_kb;
  }
