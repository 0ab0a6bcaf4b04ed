"""Agent programs shipped with the package.

These are ordinary program texts; the generators and the command line
hand them out so runs are reproducible without writing any agent code.
"""

MAZE_EXPLORER = """\
% Walk a corridor holding a list of unexplored cells. The second argument
% is the trail of visited cells, used to back out of dead ends physically:
% once an action has happened, only another action can undo it.

explore(Choicepoints,Backtrack) :-
   ?(at(agent,X)), ?(at(gold,X)).
explore(Choicepoints,Backtrack) :-
   ?(at(agent,X)),
   select(Y,Choicepoints,NewChoicepoints),
   do(go(Y)), !,
   explore(NewChoicepoints,[X|Backtrack]).
explore(Choicepoints,[X|Backtrack]) :-
   do(go(X)), !,
   explore(Choicepoints,Backtrack).

select(X,[X|Xs],Xs).
select(X,[Y|Xs],[Y|Ys]) :- select(X,Xs,Ys).
"""


_WUMPUS_CORE = """\
% Cautious sweep: visit every cell provably free of threats, smelling at
% each new cell, and grab the gold on arrival. When a sweep finds a new
% cell, knowledge may have grown, so sweep again; when a full sweep adds
% nothing, the reachable safe region is exhausted and the agent gives up.
%
% walk(Trail, Closed, Sensed, ClosedOut, SensedOut) does one sweep:
% Trail is the path back to the start, Closed the cells seen this sweep,
% Sensed the cells ever smelled at (smelling twice teaches nothing).

run :-
   ?(at(agent,S)),
   ?(perceiveSmell(R)),
   sweep([S], []).

sweep(Sensed, Prev) :-
   ?(at(agent,X)),
   walk([], [X], Sensed, Out, Sensed2), !,
   continue(Out, Sensed2, Prev).

continue(Out, Sensed, Prev) :- ?(carrying), !.
continue(Out, Sensed, Prev) :- progress(Out, Prev), !, sweep(Sensed, Out).

walk(Trail, Closed, Sensed, Closed, Sensed) :-
   ?(at(agent,X)), ?(at(gold,X)), !,
   do(grab).
walk(Trail, Closed, Sensed, Out, SensedOut) :-
   ?(at(agent,X)),
   nb(X, Y),
   nonmember(Y, Closed),
   ?(-threatAt(Y)),
   do(go(Y)), !,
   smell_at(Y, Sensed, Sensed1),
   walk([X|Trail], [Y|Closed], Sensed1, Out, SensedOut).
walk([P|Trail], Closed, Sensed, Out, SensedOut) :-
   do(go(P)), !,
   walk(Trail, Closed, Sensed, Out, SensedOut).
walk([], Closed, Sensed, Closed, Sensed).

smell_at(Y, Sensed, Sensed) :- memberchk(Y, Sensed), !.
smell_at(Y, Sensed, [Y|Sensed]) :- ?(perceiveSmell(R)).

progress(New, Old) :- member(Z, New), nonmember(Z, Old), !.

member(Z, [Z|Zs]).
member(Z, [W|Zs]) :- member(Z, Zs).
"""

_NB_GROUND2 = "nb(X, Y) :- adj(X, Y).\n"
_NB_GROUND3 = "nb(X, Y) :- ?(conn(X, Y)).\n"


def wumpus_agent(variant):
    """The cautious wumpus agent. The two wiring variants differ only in
    how a cell's neighbours are looked up: ground2 reads adj/2 facts,
    ground3 asks the belief state for conn/2 fluents."""
    if variant == "ground2":
        return _WUMPUS_CORE + "\n" + _NB_GROUND2
    if variant == "ground3":
        return _WUMPUS_CORE + "\n" + _NB_GROUND3
    raise ValueError(f"unknown wumpus agent variant {variant!r}")


WUMPUS_QUERY = "run"
