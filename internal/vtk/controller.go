package vtk

import "colza/internal/comm"

// Controller is the analog of vtkMultiProcessController: the parallel
// context a filter or compositor runs in. VTK abstracts communication
// behind vtkMultiProcessController/vtkCommunicator with MPI-backed child
// classes; the paper's contribution was a vtkMonaController implementing
// the same interface over MoNA. Here the same seam is the
// comm.Communicator interface: a Controller wraps whichever backend was
// injected, and IceT composites over the same communicator.
type Controller struct {
	c comm.Communicator
}

// NewController wraps a communicator. kind names the backing layer ("mona",
// "mpi"), as VTK's concrete controller classes do; nothing dispatches on it.
func NewController(kind string, c comm.Communicator) *Controller {
	return &Controller{c: c}
}

// Communicator returns the wrapped communicator.
func (c *Controller) Communicator() comm.Communicator { return c.c }

// Rank returns the local process id within the controller's group.
func (c *Controller) Rank() int { return c.c.Rank() }

// Size returns the number of processes in the controller's group.
func (c *Controller) Size() int { return c.c.Size() }
