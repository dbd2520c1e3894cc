(* The serving process seen from outside: spawn `lcmopt serve --stdio`,
   drive it over its one connection, read its CPU time and memory from
   /proc, and stop it.

   The timed loop is closed: at most [window] requests are outstanding,
   and a new one is sent only when a response arrives.  While the clock
   runs the client keeps raw response frames and reads nothing but each
   frame's id and status; every JSON parse and check happens after the
   timed phase. *)

module Frame = Lcm_server.Frame
module Json = Lcm_server.Json

let now = Unix.gettimeofday

type server = {
  pid : int;
  req_w : Unix.file_descr;
  resp_r : Unix.file_descr;
  reader : Frame.reader;
  ready : string Queue.t;  (* frames read but not yet consumed *)
  out : Buffer.t;  (* request bytes the pipe has not accepted yet *)
}

let spawn ~exe ~args ~env =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: "serve" :: "--stdio" :: "--quiet" :: args)) env
      req_r resp_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  Unix.set_nonblock req_w;
  {
    pid;
    req_w;
    resp_r;
    reader = Frame.create ~max_frame:(64 lsl 20);
    ready = Queue.create ();
    out = Buffer.create 65536;
  }

let flush s =
  let n = Buffer.length s.out in
  if n > 0 then
    match Unix.write_substring s.req_w (Buffer.contents s.out) 0 n with
    | k ->
      let rest = Buffer.sub s.out k (n - k) in
      Buffer.clear s.out;
      Buffer.add_string s.out rest
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let send s frame =
  Buffer.add_string s.out frame;
  Buffer.add_char s.out '\n';
  flush s

exception Server_gone

(* Wait for readable response bytes (flushing pending request bytes
   meanwhile) and cut them into frames. *)
let pump s =
  let wr = if Buffer.length s.out > 0 then [ s.req_w ] else [] in
  match Unix.select [ s.resp_r ] wr [] 1.0 with
  | r, w, _ ->
    if w <> [] then flush s;
    if r <> [] then begin
      let buf = Frame.read_chunk s.reader in
      match Unix.read s.resp_r buf 0 (Bytes.length buf) with
      | 0 -> raise Server_gone
      | n ->
        List.iter
          (function Frame.Frame f -> Queue.add f s.ready | Frame.Oversized _ -> ())
          (Frame.feed s.reader buf n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec next_frame s = if Queue.is_empty s.ready then (pump s; next_frame s) else Queue.pop s.ready

(* The response id, read from the frame's leading ["id":N] field. *)
let frame_id f =
  match String.index_from_opt f 0 ':' with
  | Some i when String.length f > 6 && String.sub f 0 6 = "{\"id\":" ->
    let j = ref (i + 1) in
    let neg = !j < String.length f && f.[!j] = '-' in
    if neg then incr j;
    let v = ref 0 in
    while !j < String.length f && f.[!j] >= '0' && f.[!j] <= '9' do
      v := (!v * 10) + Char.code f.[!j] - 48;
      incr j
    done;
    if neg then - !v else !v
  | _ -> min_int

let contains ?(limit = max_int) f pat =
  let n = min (String.length f) limit and m = String.length pat in
  let rec at i k = k = m || (f.[i + k] = pat.[k] && at i (k + 1)) in
  let rec go i = i + m <= n && (at i 0 || go (i + 1)) in
  go 0

let is_ok f = contains ~limit:256 f "\"status\":\"ok\"" || ((not (contains ~limit:256 f "\"status\":")) && contains f "\"status\":\"ok\"")

(* One request, answered before the next is sent (set-up, stats). *)
let call s ~id tail =
  send s (Printf.sprintf "{\"id\":%d%s" id tail);
  let rec wait () =
    let f = next_frame s in
    if frame_id f = id then f else wait ()
  in
  wait ()

let read_file path =
  try
    let ic = open_in_bin path in
    let b = Buffer.create 1024 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Some (Buffer.contents b)
  with Sys_error _ -> None

let clk_tck = 100.

(* Host CPU time stolen by the hypervisor (all CPUs), in milliseconds:
   the "steal" column of /proc/stat. *)
let steal_ms () =
  match read_file "/proc/stat" with
  | None -> 0.
  | Some st -> (
    match String.split_on_char ' ' (List.hd (String.split_on_char '\n' st)) |> List.filter (( <> ) "") with
    | "cpu" :: fields when List.length fields >= 8 -> float_of_string (List.nth fields 7) *. 1000. /. clk_tck
    | _ -> 0.)

(* ---- the timed closed loop ---- *)

type sample = {
  idx : int;  (* request index; also the wire id *)
  sent_s : float;  (* send time, from the start of the loop *)
  lat_ms : float;
  ok : bool;
  frame : string;
}

let marks_per_run = 20

type loop = {
  samples : sample array;  (* in completion order *)
  wall_s : float;
  marks : (float * float * float) array;
      (* (time from the start of the loop, [cpu ()], [steal_ms ()]) at the
         start, every [seconds / marks_per_run], and at the end *)
}

(* A mark interval counts as quiet when the hypervisor stole at most
   [steal_max] of the host's CPU time during it. *)
let steal_max = 0.03

(* Send [request i] for i = 0, 1, ... keeping [window] outstanding until
   [seconds] have passed and at least [min_samples] responses arrived, or
   until twice [seconds] have passed, whichever is first.  Then drain. *)
let closed_loop s ~window ~seconds ~min_samples ~cpu ~(request : int -> string) =
  let sent_at = Hashtbl.create 4096 in
  let samples = ref [] and got = ref 0 in
  let next = ref 0 and outstanding = ref 0 in
  let t0 = now () in
  let t_end = t0 +. seconds and t_cap = t0 +. (2. *. seconds) in
  let mark_every = seconds /. float_of_int marks_per_run in
  let marks = ref [ (0., cpu (), steal_ms ()) ] and next_mark = ref mark_every in
  let send_one () =
    let i = !next in
    incr next;
    incr outstanding;
    let frame = request i in
    Hashtbl.replace sent_at i (now ());
    send s frame
  in
  let more () =
    let t = now () in
    t < t_end || (!got + !outstanding < min_samples && t < t_cap)
  in
  while !outstanding < window do send_one () done;
  while !outstanding > 0 do
    let f = next_frame s in
    let t = now () in
    if t -. t0 >= !next_mark then begin
      marks := (t -. t0, cpu (), steal_ms ()) :: !marks;
      next_mark := !next_mark +. mark_every
    end;
    let i = frame_id f in
    match Hashtbl.find_opt sent_at i with
    | None -> ()
    | Some t_send ->
      Hashtbl.remove sent_at i;
      decr outstanding;
      incr got;
      samples :=
        { idx = i; sent_s = t_send -. t0; lat_ms = (t -. t_send) *. 1000.; ok = is_ok f; frame = f }
        :: !samples;
      if more () then send_one ()
  done;
  let wall_s = now () -. t0 in
  marks := (wall_s, cpu (), steal_ms ()) :: !marks;
  { samples = Array.of_list (List.rev !samples); wall_s; marks = Array.of_list (List.rev !marks) }

(* ---- the serving process tree, from /proc ---- *)

(* Fields of /proc/<pid>/stat after the parenthesised command name. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s ->
    let i = String.rindex s ')' in
    Some (Array.of_list (String.split_on_char ' ' (String.trim (String.sub s (i + 2) (String.length s - i - 2)))))

(* The serving process and its descendants (the shard router's workers). *)
let tree root =
  let pids =
    Sys.readdir "/proc" |> Array.to_list |> List.filter_map int_of_string_opt
  in
  let parent = List.filter_map (fun p -> Option.map (fun f -> (p, int_of_string f.(1))) (stat_fields p)) pids in
  let rec grow acc frontier =
    match frontier with
    | [] -> acc
    | p :: rest ->
      let kids = List.filter_map (fun (c, pp) -> if pp = p then Some c else None) parent in
      grow (acc @ kids) (rest @ kids)
  in
  grow [ root ] [ root ]

(* utime + stime of the processes [pids], in milliseconds. *)
let cpu_ms pids =
  List.fold_left
    (fun acc p ->
      match stat_fields p with
      | Some f -> acc +. ((float_of_string f.(11) +. float_of_string f.(12)) *. 1000. /. clk_tck)
      | None -> acc)
    0. pids

(* Sum of VmHWM over the tree, in MB. *)
let peak_rss_mb s =
  List.fold_left
    (fun acc p ->
      match read_file (Printf.sprintf "/proc/%d/status" p) with
      | None -> acc
      | Some st ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] ->
              acc +. (float_of_string (List.hd (String.split_on_char ' ' (String.trim v))) /. 1024.)
            | _ -> acc)
          acc (String.split_on_char '\n' st))
    0. (tree s.pid)

let stats s ~id = Json.parse (call s ~id ",\"op\":\"stats\"}")

(* End of input makes the server drain and exit; a server that is still
   there after 30 s is killed with its children. *)
let stop s =
  let kids = tree s.pid in
  (try Unix.close s.req_w with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      (* keep reading so a large final write cannot block the server *)
      (match Unix.select [ s.resp_r ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> ignore (Unix.read s.resp_r (Frame.read_chunk s.reader) 0 65536)
      | exception Unix.Unix_error _ -> ());
      wait ()
    | 0, _ ->
      List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) kids;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  (try Unix.close s.resp_r with Unix.Unix_error _ -> ());
  (* the router reaps its workers; make sure none outlived it *)
  List.iter
    (fun p ->
      if p <> s.pid && Sys.file_exists (Printf.sprintf "/proc/%d" p) then
        try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
    kids
