type algorithm = Dctcp | Reno_like | Custom of Tcp.Cc.factory

type policy = {
  enforce : bool;
  algorithm : algorithm;
  beta : float;
  max_rwnd : int option;
}

let default_policy = { enforce = true; algorithm = Dctcp; beta = 1.0; max_rwnd = None }

type t = {
  mss : int;
  min_window_bytes : int;
  log_only : bool;
  fack_only : bool;
  policing_slack : int option;
  retransmit_assist : bool;
  policy : Dcpkt.Flow_key.t -> policy;
}

let default ~mss =
  {
    mss;
    min_window_bytes = mss;
    log_only = false;
    fack_only = false;
    policing_slack = None;
    retransmit_assist = false;
    policy = (fun _ -> default_policy);
  }
