// Generated by tauhls: D-FSM-M1 (Binary encoding,
// 2 states, 1 FFs, 14 GE comb + 22 GE seq)
module d_fsm_m1 (
  input  wire clk,
  input  wire rst,
  input  wire c_m1,
  output wire of0,
  output wire re0,
  output wire c_co_0
);
  reg  [0:0] state;
  wire [0:0] state_next;

  assign state_next[0] = (~state[0] & ~c_m1);

  assign of0 = 1'b1;
  assign re0 = (state[0]) | (c_m1);
  assign c_co_0 = (state[0]) | (c_m1);

  always @(posedge clk) begin
    if (rst) state <= 1'd0;
    else     state <= state_next;
  end
endmodule

// Generated by tauhls: D-FSM-M2 (Binary encoding,
// 4 states, 2 FFs, 63 GE comb + 44 GE seq)
module d_fsm_m2 (
  input  wire clk,
  input  wire rst,
  input  wire c_m2,
  output wire of2,
  output wire of3,
  output wire re2,
  output wire re3,
  output wire c_co_3
);
  reg  [1:0] state;
  wire [1:0] state_next;

  assign state_next[0] = (~state[0] & ~c_m2);
  assign state_next[1] = (state[0] & ~state[1]) | (~state[1] & c_m2) | (~state[0] & state[1] & ~c_m2);

  assign of2 = (~state[1]);
  assign of3 = (state[1]);
  assign re2 = (state[0] & ~state[1]) | (~state[1] & c_m2);
  assign re3 = (state[0] & state[1]) | (state[1] & c_m2);
  assign c_co_3 = (state[0] & state[1]) | (state[1] & c_m2);

  always @(posedge clk) begin
    if (rst) state <= 2'd0;
    else     state <= state_next;
  end
endmodule

// Generated by tauhls: D-FSM-A1 (Binary encoding,
// 4 states, 2 FFs, 64 GE comb + 44 GE seq)
module d_fsm_a1 (
  input  wire clk,
  input  wire rst,
  input  wire c_co_0,
  input  wire c_co_3,
  output wire of1,
  output wire of4,
  output wire re1,
  output wire re4
);
  reg  [1:0] state;
  wire [1:0] state_next;

  assign state_next[0] = (~state[0] & ~state[1]) | (state[0] & state[1]);
  assign state_next[1] = (state[0] & ~state[1] & ~c_co_0) | (~state[0] & state[1] & ~c_co_0) | (~state[0] & ~state[1] & ~c_co_3) | (state[0] & state[1] & ~c_co_3);

  assign of1 = (~state[0] & ~state[1]);
  assign of4 = (state[0] & ~state[1]);
  assign re1 = (~state[0] & ~state[1]);
  assign re4 = (state[0] & ~state[1]);

  always @(posedge clk) begin
    if (rst) state <= 2'd2;
    else     state <= state_next;
  end
endmodule

module control_unit (
  input  wire clk,
  input  wire rst,
  input  wire c_m1,
  input  wire c_m2,
  output wire of0,
  output wire re0,
  output wire of2,
  output wire of3,
  output wire re2,
  output wire re3,
  output wire of1,
  output wire of4,
  output wire re1,
  output wire re4
);
  wire c_co_0;
  wire c_co_3;
  d_fsm_m1 u_d_fsm_m1 (
    .clk(clk), .rst(rst),
    .c_m1(c_m1),
    .of0(of0),
    .re0(re0),
    .c_co_0(c_co_0)
  );
  d_fsm_m2 u_d_fsm_m2 (
    .clk(clk), .rst(rst),
    .c_m2(c_m2),
    .of2(of2),
    .of3(of3),
    .re2(re2),
    .re3(re3),
    .c_co_3(c_co_3)
  );
  d_fsm_a1 u_d_fsm_a1 (
    .clk(clk), .rst(rst),
    .c_co_0(c_co_0),
    .c_co_3(c_co_3),
    .of1(of1),
    .of4(of4),
    .re1(re1),
    .re4(re4)
  );
endmodule
